import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import tomoslice

PACKAGE = Path(tomoslice.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def _module_level_names(tree):
    """Names a module binds at its top level by def, class or assignment,
    other than dunder names such as ``__all__``."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


def _reads(tree):
    """Every name a module reads, as a bare name or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_no_dead_module_level_names():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    read = set(tomoslice.__all__)
    for tree in trees.values():
        read |= _reads(tree)
    dead = {
        (module, name): line
        for module, tree in trees.items()
        for name, line in _module_level_names(tree).items()
        if name not in read
    }
    assert dead == {}, dead


def _methods(tree):
    """(class, name, line) for every method and property a module's classes
    define, other than dunder methods such as ``__post_init__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield node.name, item.name, item.lineno


def test_no_dead_methods():
    """Every method or property of a package class is read as an attribute in
    the package or its tests.  One that overrides a base-class method, such
    as an ArgumentParser's ``error``, is exempt: the base class calls it."""
    paths = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in paths + sorted(TESTS.glob("*.py")):
        read |= _reads(ast.parse(path.read_text(encoding="utf-8")))
    dead = {}
    for path in paths:
        module = None
        for cls_name, name, line in _methods(ast.parse(path.read_text(encoding="utf-8"))):
            module = module or importlib.import_module(f"tomoslice.{path.stem}")
            bases = getattr(module, cls_name).__mro__[1:]
            if name not in read and not any(name in vars(base) for base in bases):
                dead[(path.name, f"{cls_name}.{name}")] = line
    assert dead == {}, dead


# every (function, parameter) of tomoslice.__all__ that has a default; a new
# setting has to appear here, and so in a diff, beside the caller that sets it
DEFAULTED_PARAMETERS = {
    ("detect_min_m", "tol"),
    ("exponent_estimate", "window"),
    ("is_ellipsoid", "num_directions"),
    ("is_ellipsoid", "seed"),
    ("is_ellipsoid", "tol"),
    ("profile", "margin"),
    ("profile", "num_points"),
    ("profile", "window"),
    ("quadric_check", "num_points"),
    ("quadric_check", "tol"),
    ("quadric_check", "window"),
    ("random_ellipsoid", "seed"),
    ("random_rotation", "seed"),
    ("random_simplex", "seed"),
    ("range_test", "seed"),
    ("sample_directions", "antithetic"),
    ("sample_directions", "seed"),
    ("section_consistency_check", "num_probes"),
    ("section_consistency_check", "seed"),
    ("section_volume_mc", "box"),
    ("section_volume_mc", "samples"),
    ("section_volume_mc", "seed"),
    ("section_volume_mc", "slab_halfwidth"),
}


def test_public_functions_have_only_the_listed_defaulted_parameters():
    found = {
        (name, param.name)
        for name in tomoslice.__all__
        if inspect.isfunction(getattr(tomoslice, name))
        for param in inspect.signature(getattr(tomoslice, name)).parameters.values()
        if param.default is not inspect.Parameter.empty
    }
    assert found == DEFAULTED_PARAMETERS


def test_only_bodies_knows_the_direction_class():
    """A direction is read and checked in one place, ``bodies._direction_rows``;
    every other module takes a plain 1-d unit array or a stack."""
    named = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "Direction" in path.read_text(encoding="utf-8") and path.name not in ("bodies.py", "__init__.py")
    }
    assert named == set()
    assert not any("as_direction" in path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py"))


def test_every_traced_name_resolves():
    """The benchmark tracer patches package names listed in its ``TARGETS``
    and reports a missing one as absent, not as an error.  A rename that would
    silently drop a traced layer fails here: every plain name exists on its
    module, and every ``*.method`` is defined on at least one body class."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TESTS.parent / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, (modname, attr, _) in tracer.TARGETS.items():
        module = importlib.import_module(modname)
        if attr.startswith("*."):
            owners = [getattr(module, cls, None) for cls in tracer.BODY_CLASSES]
            found = any(cls is not None and attr[2:] in vars(cls) for cls in owners)
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(name)
    assert missing == []


def test_every_fit_solves_through_one_least_squares_rule():
    """Every least-squares fit in the package is factored by
    ``algfit._least_squares``, the one place that takes an SVD and sets the
    rank cutoff.  No module reads numpy's own solvers (``lstsq``,
    ``polyfit``) or calls a ``.fit`` method; ``matrix_rank`` appears only in
    ``bodies``, where it checks the rank of a vertex set and fits nothing.
    Docstrings may still name them: only code is read."""
    solvers = {"lstsq", "polyfit", "matrix_rank", "svd"}
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _reads(tree) & solvers
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                # an import under another name reads as that name
                names |= {alias.name for alias in node.names} & solvers
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "fit":
                names.add(".fit(")
        if names:
            found[path.name] = names
    assert found == {"algfit.py": {"svd"}, "bodies.py": {"matrix_rank"}}
