"""Print the public surface of a package: one line per public function,
class and method, with its parameters.

    python tools/surface.py [PACKAGE_DIR]    # default: src/braidshadow
    python tools/surface.py OLD_DIR NEW_DIR

A name is public when neither it nor its module starts with "_".  A class
line lists its constructor's parameters: those of its ``__init__``, or the
fields of a dataclass or NamedTuple that has none; an inherited
constructor is not followed.  A property is printed without parentheses.
The source is read with ``ast``, so nothing is imported.  Given two
directories, the lines only OLD_DIR has are printed with "-" and the lines
only NEW_DIR has with "+", by name.
"""

import ast
import sys
from pathlib import Path

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (ast.ClassDef, *_FUNCTIONS)


def _params(args: ast.arguments, bound: bool) -> list[str]:
    positional = [a.arg for a in args.posonlyargs + args.args]
    if args.posonlyargs:
        positional.insert(len(args.posonlyargs), "/")
    names = positional[1:] if bound else positional
    if args.vararg:
        names.append("*" + args.vararg.arg)
    elif args.kwonlyargs:
        names.append("*")
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg:
        names.append("**" + args.kwarg.arg)
    return names


def _decorators(node) -> set[str]:
    names = set()
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        names.add(d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", ""))
    return names


def _fields(cls: ast.ClassDef) -> list[str] | None:
    """A dataclass's or NamedTuple's fields, None for another class."""
    bases = {getattr(b, "id", getattr(b, "attr", "")) for b in cls.bases}
    if "dataclass" not in _decorators(cls) and "NamedTuple" not in bases:
        return None
    return [
        s.target.id for s in cls.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
        and "ClassVar" not in ast.unparse(s.annotation)
    ]


def surface(root: Path) -> list[str]:
    lines = []
    for path in sorted(root.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            name = f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, _FUNCTIONS)]
                init = [m for m in methods if m.name == "__init__"]
                params = _params(init[0].args, True) if init else _fields(node) or []
                lines.append(f"{name}({', '.join(params)})")
                for m in methods:
                    if m.name.startswith("_"):
                        continue
                    kinds = _decorators(m)
                    if "property" in kinds:
                        lines.append(f"{name}.{m.name}")
                    else:
                        params = _params(m.args, "staticmethod" not in kinds)
                        lines.append(f"{name}.{m.name}({', '.join(params)})")
            else:
                lines.append(f"{name}({', '.join(_params(node.args, False))})")
    return lines


def main(argv: list[str]) -> None:
    if len(argv) > 2:
        raise SystemExit("usage: surface.py [PACKAGE_DIR | OLD_DIR NEW_DIR]")
    trees = [surface(Path(arg)) for arg in argv or ["src/braidshadow"]]
    if len(trees) == 1:
        print("\n".join(trees[0]))
        return
    old, new = trees
    changed = [("-", line) for line in old if line not in new]
    changed += [("+", line) for line in new if line not in old]
    for sign, line in sorted(changed, key=lambda c: (c[1].split("(")[0], c[0] == "+")):
        print(f"{sign} {line}")


if __name__ == "__main__":
    main(sys.argv[1:])
