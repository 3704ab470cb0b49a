import ast
from pathlib import Path

import tomoslice

PACKAGE = Path(tomoslice.__file__).resolve().parent


def _unused_imports(tree):
    """Names a module imports but never reads; a name listed in ``__all__``
    counts as read, since it is re-exported."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    return {name: line for name, line in imported.items() if name not in read}


def test_no_unused_imports():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line in _unused_imports(ast.parse(path.read_text(encoding="utf-8"))).items():
            unused[(path.name, name)] = line
    # __init__ imports cli only to bind tomoslice.cli, which callers reach as
    # an attribute after a bare ``import tomoslice``
    assert set(unused) == {("__init__.py", "cli")}, unused
