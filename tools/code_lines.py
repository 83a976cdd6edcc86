"""Print lines and code lines per module of a package, then the totals.

A code line holds a token other than a comment, NL, NEWLINE, INDENT or
DEDENT and lies outside every module, class and function docstring.

    python tools/code_lines.py [PACKAGE_DIR]    # default: src/braidshadow
"""

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
           tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    with path.open("rb") as fh:
        code = {t.start[0] for t in tokenize.tokenize(fh.readline) if t.type not in _LAYOUT}
    return len(text.splitlines()), len(code - docs)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/braidshadow")
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for name, lines, code in rows:
        print(f"{name:<16} {lines:>6} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
