import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


BENCH_PAIRS = CODE_LINES.with_name("bench_pairs.py")


def _result_line(correct, failed, ops, p50):
    # the last stdout line of perfbench/run.py --trace 0
    return json.dumps({
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                    "op_p50_ms": {"value": p50, "unit": "ms"}},
    })


def test_bench_pairs_summarizes_paired_runs():
    # medians and inclusive quartiles per side; a pair is a win for the new
    # tree when its value is better in the metric's own direction
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    old = [_result_line(True, 0, ops, p50) for ops, p50 in
           [(100, 2.0), (110, 1.0), (90, 3.0), (120, 2.5), (105, 1.5)]]
    new = [_result_line(k != 2, int(k == 2), ops, p50) for k, (ops, p50) in
           enumerate([(130, 1.0), (105, 1.5), (140, 0.5), (150, 2.0), (125, 1.5)])]
    summary = bench_pairs.summarize(
        [json.loads(line) for line in old], [json.loads(line) for line in new],
        {"ops_per_s": "higher", "op_p50_ms": "lower"},
    )
    ops = summary["metrics"]["ops_per_s"]
    assert (ops["old"]["median"], ops["old"]["q1"], ops["old"]["q3"]) == (105, 100, 110)
    assert (ops["new"]["median"], ops["new"]["q1"], ops["new"]["q3"]) == (130, 125, 140)
    assert ops["new"]["values"] == [130, 105, 140, 150, 125]
    assert (ops["unit"], ops["better"], ops["new_wins"]) == ("1/s", "higher", 4)
    assert ops["change"] == pytest.approx(25 / 105)
    p50 = summary["metrics"]["op_p50_ms"]
    assert (p50["old"]["median"], p50["new"]["median"], p50["new_wins"]) == (2.0, 1.5, 3)
    assert p50["change"] == pytest.approx(-0.25)
    assert summary["runs"]["old"][0] == {"correct": True, "attempted": 100, "failed": 0}
    assert summary["runs"]["new"][2] == {"correct": False, "attempted": 100, "failed": 1}
