"""Print lines and code lines per module of a package, then the totals.

A code line holds a token other than a comment, NL, NEWLINE, INDENT or
DEDENT and lies outside every module, class and function docstring.

    python tools/code_lines.py [PACKAGE_DIR]    # default: src/braidshadow
    python tools/code_lines.py OLD_DIR NEW_DIR

Given two directories, each row holds the lines and code lines of OLD_DIR,
then of NEW_DIR, then the signed change; a module missing from one tree
counts as 0 there.
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
    if len(argv) > 2:
        raise SystemExit("usage: code_lines.py [PACKAGE_DIR | OLD_DIR NEW_DIR]")
    roots = [Path(arg) for arg in argv] or [Path("src/braidshadow")]
    trees = [{path.name: count(path) for path in sorted(root.glob("*.py"))} for root in roots]
    names = sorted(set().union(*trees))
    for tree in trees:
        tree["total"] = (sum(n for n, _ in tree.values()), sum(c for _, c in tree.values()))
    for name in [*names, "total"]:
        cells = [tree.get(name, (0, 0)) for tree in trees]
        row = "".join(f" {lines:>6} {code:>6}" for lines, code in cells)
        if len(cells) == 2:
            row += " {:>+6} {:>+6}".format(*(new - old for old, new in zip(*cells)))
        print(f"{name:<16}{row}")


if __name__ == "__main__":
    main(sys.argv[1:])
