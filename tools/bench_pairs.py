"""Run the benchmark on two checkouts in alternating pairs and record both.

    python tools/bench_pairs.py OLD_DIR NEW_DIR --workload W --pairs N \\
        --seconds S --out FILE [--first-seed K]

Pair k (k = 0 .. N-1) runs each tree's own ``perfbench/run.py``, unmodified,
from that tree's root, with seed K + k (K defaults to 1) and ``--trace 0``;
the old tree runs first in even pairs and the new tree in odd ones.  The
end-to-end metrics and whether each is better higher or lower are read
from NEW_DIR/BENCHMARK.json.

FILE is a JSON document with one entry per workload under "workloads"; an
existing FILE keeps its other workloads, so one FILE can hold all of them.
An entry records the seeds, which side ran first in each pair, each run's
``correct``, ``attempted`` and ``failed``, and for each end-to-end metric
both sides' per-run values, medians and quartiles (statistics.quantiles,
inclusive), the relative change of the medians, and in how many pairs the
new tree did better.  A run that exits non-zero or prints no result stops
the tool before FILE is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its last stdout line, parsed."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {tree}: seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _side(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": q2, "q1": q1, "q3": q3}


def summarize(old_runs: list[dict], new_runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of paired results (old_runs[k] pairs new_runs[k]);
    ``better`` maps each end-to-end metric to "higher" or "lower"."""
    runs = {
        side: [{key: r[key] for key in ("correct", "attempted", "failed")} for r in results]
        for side, results in (("old", old_runs), ("new", new_runs))
    }
    metrics = {}
    for name, direction in better.items():
        old = [r["metrics"][name]["value"] for r in old_runs]
        new = [r["metrics"][name]["value"] for r in new_runs]
        sign = 1 if direction == "higher" else -1
        o, n = _side(old), _side(new)
        metrics[name] = {
            "unit": old_runs[0]["metrics"][name]["unit"],
            "better": direction,
            "old": o,
            "new": n,
            "change": (n["median"] - o["median"]) / o["median"] if o["median"] else None,
            "new_wins": sum(sign * (b - a) > 0 for a, b in zip(old, new)),
        }
    return {"runs": runs, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir", type=Path)
    parser.add_argument("new_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.new_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = [args.first_seed + k for k in range(args.pairs)]
    order = ["old" if k % 2 == 0 else "new" for k in range(args.pairs)]
    results: dict[str, list[dict]] = {"old": [], "new": []}
    for seed, first in zip(seeds, order):
        for side in (first, "new" if first == "old" else "old"):
            tree = args.old_dir if side == "old" else args.new_dir
            results[side].append(run_once(tree, args.workload, seed, args.seconds))
        print(f"seed {seed}: ops_per_s old {results['old'][-1]['metrics']['ops_per_s']['value']:.4g}"
              f" new {results['new'][-1]['metrics']['ops_per_s']['value']:.4g}", flush=True)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("workloads", {})[args.workload] = {
        "seconds": args.seconds,
        "seeds": seeds,
        "first": order,
        **summarize(results["old"], results["new"], better),
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in doc["workloads"][args.workload]["metrics"].items():
        print(f"{name:12s} old {m['old']['median']:.4g} [{m['old']['q1']:.4g}-{m['old']['q3']:.4g}] "
              f"new {m['new']['median']:.4g}  new better in {m['new_wins']} of {args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
