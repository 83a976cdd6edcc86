import subprocess
import sys
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment

# only a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """not a
        docstring"""
        return (text,
                os.sep)
'''


def test_code_lines_skips_docstrings_comments_and_layout(tmp_path):
    # code lines of a.py: import, class, def, text = (a string that is not
    # a docstring counts on its first line), and both lines of the return
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(CODE_LINES), str(tmp_path)],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["a.py", "18", "6"], ["b.py", "1", "1"], ["total", "19", "7"]]


def test_code_lines_compares_two_trees(tmp_path):
    # per module: old lines and code lines, new ones, then the signed
    # change; a module missing from one tree counts as 0 there
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.py").write_text(FIXTURE, encoding="utf-8")
    (old / "b.py").write_text("x = 1\n", encoding="utf-8")
    (new / "a.py").write_text(FIXTURE + "y = 2\n", encoding="utf-8")
    (new / "c.py").write_text("# comment\nz = 3\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(CODE_LINES), str(old), str(new)],
        capture_output=True, text=True, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()]
    assert rows == [
        ["a.py", "18", "6", "19", "7", "+1", "+1"],
        ["b.py", "1", "1", "0", "0", "-1", "-1"],
        ["c.py", "0", "0", "2", "1", "+2", "+1"],
        ["total", "19", "7", "21", "8", "+2", "+1"],
    ]


SURFACE = CODE_LINES.with_name("surface.py")

SURFACE_FIXTURE = '''from dataclasses import dataclass
from typing import ClassVar, NamedTuple


def f(a, /, b, *rest, c, **kw):
    def inner(z):
        return z


def _private(a):
    pass


class C:
    def __init__(self, x, *, y=1):
        pass

    @property
    def size(self):
        return 0

    @staticmethod
    def make(n):
        return C(n)

    @classmethod
    def empty(cls):
        return cls(0)

    def _hidden(self):
        pass


@dataclass(frozen=True)
class D:
    p: int
    q: str = ""
    limit: ClassVar[int] = 3


class Pair(NamedTuple):
    left: int
    right: int


class Plain:
    pass
'''


def _surface(*dirs):
    return subprocess.run(
        [sys.executable, str(SURFACE), *map(str, dirs)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()


def test_surface_lists_public_names_with_their_parameters(tmp_path):
    # a private module, private names and nested functions are skipped; a
    # dataclass or NamedTuple lists its fields, but not a ClassVar
    (tmp_path / "m.py").write_text(SURFACE_FIXTURE, encoding="utf-8")
    (tmp_path / "_hidden.py").write_text("def g(a):\n    pass\n", encoding="utf-8")
    assert _surface(tmp_path) == [
        "m.f(a, /, b, *rest, c, **kw)",
        "m.C(x, *, y)",
        "m.C.size",
        "m.C.make(n)",
        "m.C.empty()",
        "m.D(p, q)",
        "m.Pair(left, right)",
        "m.Plain()",
    ]


def test_surface_compares_two_trees(tmp_path):
    # lines only the old tree has get "-", lines only the new one has "+",
    # ordered by name
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "m.py").write_text(SURFACE_FIXTURE, encoding="utf-8")
    changed = SURFACE_FIXTURE.replace("def __init__(self, x, *, y=1)", "def __init__(self, x)")
    (new / "m.py").write_text(changed + "\n\ndef h():\n    pass\n", encoding="utf-8")
    (new / "n.py").write_text("def k(v):\n    pass\n", encoding="utf-8")
    assert _surface(old, new) == ["- m.C(x, *, y)", "+ m.C(x)", "+ m.h()", "+ n.k(v)"]
