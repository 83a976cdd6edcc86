"""The benchmark's seed-0 outputs stay byte-identical.

Each workload's child is run in a subprocess from the repo root, as
``perfbench/run.py`` runs it, and its output digest is compared with the
frozen one.  The frozen digests are read out of ``perfbench/selftest.py``,
so they live in one place.
"""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def frozen_digests() -> dict[str, str]:
    tree = ast.parse((PERFBENCH / "selftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "FROZEN_DIGESTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py defines no FROZEN_DIGESTS")


@pytest.mark.parametrize("workload", ["catalog-d5", "groupoid-queries", "word-oracle"])
def test_benchmark_digest_is_frozen(workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "--workload", workload, "--seed", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["digest"] == frozen_digests()[workload]
