"""Count the code lines of a package: lines that hold a token of a statement,
without docstrings, comments or blank lines.

A line counts when some token on it, or a multi-line token spanning it,
belongs to a logical line that is not a bare string.  A logical line made of
string literals alone (a docstring, or a string used as a comment) counts
for nothing, and neither do comments, blank lines and continuation-only
lines.  Prints one line per module, ``<count> <path>``, then ``<total>
total``.

Usage: python scripts/code_lines.py [src/tomoslice]
"""

import argparse
import io
import pathlib
import tokenize

# tokens that hold no code: layout, comments and the stream's bounds
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
}


def code_lines(source):
    """The number of code lines in the Python text ``source``."""
    lines = set()
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _NOT_CODE:
            statement.append(tok)
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/tomoslice", help="directory of .py files")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(pathlib.Path(args.package).glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
