"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

* the metric names in BENCHMARK.json are exactly the ones run.py prints;
* the tracer wraps a name in every module that imported it, and reports a
  name the package no longer has as absent instead of failing;
* every span fires on the workload assigned to it below, in a short traced
  run of each workload, and every output check passes;
* the first cycle of seed 0 still hashes to the digest frozen below, so the
  package's output stays byte-identical across commits;
* run.py fails without printing a result in a directory that holds only
  BENCHMARK.json and the benchmark's files.

It takes about a minute and a half.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402

# The workload on which each span and work count must fire.
HOME = {
    "words": "word-oracle",
    "perms": "catalog-d5",
    "subgroups": "catalog-d5",
    "subgroups.nfi_contains": "groupoid-queries",
    "subgroups.nfi_intersect": "groupoid-queries",
    "subgroups.from_f2_quotient": "groupoid-queries",
    "shadows": "groupoid-queries",
    "groupoid": "groupoid-queries",
    "cli": "cli-session",
    "layer.startup": "cli-session",
}


# Digest of cycle 0 of seed 0 for each workload, at the seed commit.
FROZEN_DIGESTS = {
    "catalog-d5": "dae112d620568fa7420e93f99567a42176c3634390b230a586d1a255314c7ed0",
    "groupoid-queries": "9d256194905253b12a30401cc20863dc66a03d62e9ab4bacc4f887b3a762159e",
    "word-oracle": "8a2658160ec12c65dcd3ad36908bf3d9b8f148662c1a4b10436d5efbb530bcb6",
    "cli-session": "a75c8d3479a75146320a5c694ef4f4136fafd3f7fae2d47ef8e5fa55af8dd61e",
}


def home(name: str) -> str:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        key = ".".join(parts[:cut])
        if key in HOME:
            return HOME[key]
    raise KeyError(name)


def traced_run(workload: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    printed = list(tracer.layer_metrics(tracer.empty_snapshot())) + ["trace.overhead_s"]
    printed += [n for n, _ in run.CLI_LAYER]
    assert [m["name"] for m in bench["per_layer"]] == printed
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def check_tracer_churn() -> None:
    from braidshadow import perms, subgroups

    t = tracer.Tracer()
    t.install()
    try:
        assert perms.kernel_contained is subgroups.kernel_contained
        assert perms.kernel_contained.__wrapped__ is not None
    finally:
        t.uninstall()
    assert not hasattr(perms.kernel_contained, "__wrapped__")

    saved = perms.closure_order
    del perms.closure_order
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
    finally:
        perms.closure_order = saved
    assert "perms.closure_order" in t.snapshot()["absent"]


def check_spans_fire() -> None:
    for workload in run.WORKLOADS:
        doc, stdout = traced_run(workload)
        assert doc["correct"] and doc["failed"] == 0, (workload, doc["failed"])
        assert f"digest cycle 0: {FROZEN_DIGESTS[workload]}" in stdout, (workload, stdout)
        metrics = doc["metrics"]
        mine = [n for n in tracer.SPAN_NAMES if home(n) == workload]
        silent = [n for n in mine if metrics[f"{n}.calls"]["value"] == 0]
        counts = [n for n in tracer.SUM_COUNTS + tracer.MAX_COUNTS if home(n) == workload]
        counts += [n for n, _ in run.CLI_LAYER if home(n) == workload]
        silent += [n for n in counts if metrics[n]["value"] == 0]
        assert not silent, f"{workload}: spans that never fired: {silent}"
        print(f"ok {workload}: {len(mine)} spans and {len(counts)} counts fired")


def check_fails_without_program() -> None:
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog-d5", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    check_names()
    check_tracer_churn()
    check_fails_without_program()
    check_spans_fire()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
