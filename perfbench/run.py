"""The braidshadow benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every cycle of a workload runs in a
fresh interpreter (``perfbench/child.py``), so the package's memo caches
start cold, as they do for a command-line user.  Cycles repeat until the
measuring time is spent; a few more children only set up, so that set-up
time is a median of several.  Every operation's output is checked.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` half the time runs untraced,
the same cycles then run again traced, and the metrics are the per-layer
spans and work counts plus the tracing overhead.  The lines above it name
every metric in the workload's own terms (``catalog_s``,
``query_p50_ms`` and so on), with sample counts and the output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import layer_metrics, layer_self_seconds, merge  # noqa: E402

WORKLOADS = ("catalog-d5", "groupoid-queries", "word-oracle", "cli-session")
MIN_SETUP_SAMPLES = 7
RUN_DEADLINE_S = 165  # every child is stopped before the run reaches this

# Latency statistics are taken per cycle, and a run reports their median
# over its cycles, so that a cycle that ran while the machine was slow is
# outvoted.  Cycles have fixed sizes (one catalog pass, 202 queries, 1066
# words, 64 commands), so each workload's tail is one fixed percentile.
TAIL_BEYOND = 10
# Digest of the catalog-d5 outputs (rows and content ids) at the seed commit.
CATALOG_DIGEST = "dae112d620568fa7420e93f99567a42176c3634390b230a586d1a255314c7ed0"

# The layers expected to carry the most self time on each workload.
EXPECTED_TOP = {
    "catalog-d5": ("perms", "subgroups"),
    "groupoid-queries": ("shadows", "groupoid", "perms"),
    "word-oracle": ("words",),
    "cli-session": ("startup", "cli"),
}

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
)
CLI_LAYER = (
    ("cli.startup_ms", "ms"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.cache.hit_ratio", "ratio"),
    ("cli.cache.bytes_written", "bytes"),
    ("cli.startup_share", "ratio"),
    ("cli.genuine.catalog_search.calls", "count"),
    ("layer.startup.self_s", "s"),
)


class ChildFailed(Exception):
    pass


def spawn(workload, seed, cycle, mode, deadline):
    """Run one child to completion and return its parsed result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--cycle", str(cycle), "--mode", mode]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} cycle {cycle}: child timed out") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} cycle {cycle}: exit {proc.returncode}: {stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def run_cycles(workload, seed, seconds, deadline, mode="run", cycles=None):
    """Exactly ``cycles`` cycles, or as many as end closest to ``seconds``.

    A further cycle starts only if it is expected to end less than half a
    cycle after the measuring time; there is always at least one.
    """
    results = []
    start = time.monotonic()
    while True:
        done = len(results)
        elapsed = time.monotonic() - start
        if cycles is not None and done >= cycles:
            break
        if cycles is None and done and elapsed + elapsed / done / 2 > seconds:
            break
        results.append(spawn(workload, seed, done, mode, deadline))
    return results


def setup_samples(workload, seed, results, deadline):
    samples = [r["setup_s"] for r in results]
    cycle = len(results)
    while len(samples) < MIN_SETUP_SAMPLES:
        samples.append(spawn(workload, seed, cycle, "setup", deadline)["setup_s"])
        cycle += 1
    return samples


# ---------------------------------------------------------------------------
# statistics


def latency_summary(results, phase=""):
    """Median over cycles of each cycle's p50, tail and operations per second.

    A cycle's tail is the highest percentile with ten samples beyond it,
    that is its eleventh-largest latency; with fewer than twenty samples
    no percentile above the median has ten beyond it, and the tail is the
    median.  ``phase`` keeps only the operations whose kind starts with it.
    """
    p50s, tails, rates, pcts = [], [], [], []
    n = 0
    for r in results:
        times = sorted(op[1] for op in r["ops"] if op[0].startswith(phase))
        n += len(times)
        p50s.append(statistics.median(times))
        if len(times) >= 2 * TAIL_BEYOND:
            tails.append(times[-TAIL_BEYOND - 1])
            pcts.append(100 * (len(times) - TAIL_BEYOND) / len(times))
        else:
            tails.append(p50s[-1])
            pcts.append(50)
        rates.append(len(times) / sum(times))
    label = f"p{min(pcts):.4g}" + (f" to p{max(pcts):.4g}" if max(pcts) != min(pcts) else "")
    return {"p50": statistics.median(p50s), "tail": statistics.median(tails), "tail_label": label,
            "per_s": statistics.median(rates), "note": f"median of {len(results)} cycles, n={n}"}


# ---------------------------------------------------------------------------
# reporting


def check(results):
    """(attempted, failed, failure lines) over every cycle."""
    attempted = sum(len(r["ops"]) for r in results)
    failed = sum(1 for r in results for op in r["ops"] if not op[2])
    lines = [f for r in results for f in r["failures"]]
    return attempted, failed, lines


def digest_lines(workload, results):
    digests = [r["digest"] for r in results]
    lines = [f"digest cycle {i}: {d} ({r['digested']} outputs)" for i, (d, r) in enumerate(zip(digests, results))]
    # catalog-d5 has no randomness: every cycle must produce the frozen bytes.
    consistent = workload != "catalog-d5" or set(digests) == {CATALOG_DIGEST}
    return lines, consistent


def named_metrics(workload, results, setup):
    """The issue's metric names, each on the workload that reports it."""
    ops = [op for r in results for op in r["ops"]]
    attempted, failed, _ = check(results)
    rows = [
        ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} set-ups"),
        ("peak_rss_mb", peak_rss(workload, results), "MB", f"median of {len(results)} cycles"),
        ("fail_ratio", failed / max(attempted, 1), "ratio", f"{failed} of {attempted}"),
    ]
    summary = latency_summary(results)
    note = summary["note"]
    if workload == "catalog-d5":
        rows.append(("catalog_s", summary["p50"], "s", f"median of {len(results)} cold passes"))
    elif workload == "groupoid-queries":
        rows += [
            ("query_p50_ms", summary["p50"] * 1e3, "ms", note),
            ("query_tail_ms", summary["tail"] * 1e3, "ms", f"{summary['tail_label']}, {note}"),
            ("queries_per_s", summary["per_s"], "1/s", f"one closed-loop client, {note}"),
        ]
        repeats = sum(r["extra"]["touched_repeats"] for r in results)
        rows.append(("touched_share", repeats / len(ops), "ratio", "queries whose targets were already touched"))
    elif workload == "word-oracle":
        rows += [
            ("word_p50_us", summary["p50"] * 1e6, "us", note),
            ("word_tail_ms", summary["tail"] * 1e3, "ms", f"{summary['tail_label']}, {note}"),
            ("words_per_s", summary["per_s"], "1/s", f"one closed-loop client, {note}"),
        ]
    else:
        for phase in ("cold", "warm"):
            part = latency_summary(results, phase + ":")
            rows.append((f"cli_{phase}_p50_ms", part["p50"] * 1e3, "ms", part["note"]))
        sessions = [r["extra"]["session_s"] for r in results]
        rows.append(("cli_session_s", statistics.median(sessions), "s", f"median of {len(sessions)} sessions"))
        stats = [r["extra"]["cache_stats"] for r in results]
        warm = sum(s["warm_hits"] for s in stats) / max(1, sum(s["warm_cacheable"] for s in stats))
        rows.append(("warm_hit_ratio", warm, "ratio", "cacheable commands of the warm pass"))
    return rows


def peak_rss(workload, results):
    key = "child_rss_mb" if workload == "cli-session" else None
    return statistics.median(r["extra"][key] if key else r["rss_mb"] for r in results)


def end_to_end(workload, results, setup):
    summary = latency_summary(results)
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss(workload, results),
        "op_p50_ms": summary["p50"] * 1e3,
        "op_tail_ms": summary["tail"] * 1e3,
        "ops_per_s": summary["per_s"],
    }


def traced_metrics(workload, plain, traced):
    snapshot = merge(r["extra"]["snapshot"] for r in traced)
    metrics = layer_metrics(snapshot)
    overhead = sum(r["extra"]["measure_s"] for r in traced) - sum(r["extra"]["measure_s"] for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    cli = dict.fromkeys((name for name, _ in CLI_LAYER), 0)
    if workload == "cli-session":
        stats = [r["extra"]["cache_stats"] for r in traced]
        hits, misses = sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)
        startup_ms = statistics.median(r["extra"]["noop_start_ms"] for r in traced)
        shares = [x for r in traced for x in r["extra"]["warm_startup_shares"]]
        cli.update({
            "cli.startup_ms": startup_ms,
            "cli.cache.hits": hits,
            "cli.cache.misses": misses,
            "cli.cache.hit_ratio": hits / max(1, hits + misses),
            "cli.cache.bytes_written": sum(s["bytes_written"] for s in stats),
            "cli.startup_share": statistics.median(shares),
            "cli.genuine.catalog_search.calls": sum(r["extra"]["genuine_catalog_calls"] for r in traced),
            "layer.startup.self_s": sum(r["extra"]["startup_s"] for r in traced),
        })
    for name, unit in CLI_LAYER:
        metrics[name] = (cli[name], unit)
    return snapshot, metrics


def ranking_lines(workload, snapshot, metrics):
    layers = layer_self_seconds(snapshot)
    if workload == "cli-session":
        layers["startup"] = metrics["layer.startup.self_s"][0]
    ranked = sorted(layers, key=layers.get, reverse=True)
    expected = EXPECTED_TOP[workload]
    top = ranked[: len(expected)]
    verdict = "MATCH" if set(top) == set(expected) else "MISMATCH"
    return [
        "layer self time: " + ", ".join(f"{name} {layers[name]:.3f}s" for name in ranked),
        f"expected top layers {'+'.join(expected)}; observed {'+'.join(top)}: {verdict}",
    ]


def gap_lines(workload, metrics):
    value = {name: v for name, (v, _unit) in metrics.items()}
    lines = []
    searches = value["subgroups.catalog_search.calls"]
    if searches:
        lines.append(
            f"gap: each catalog search keeps {value['subgroups.catalog.kept'] / searches:.0f} of "
            f"{value['subgroups.catalog.candidates'] / searches:.0f} candidates "
            f"(kept_ratio {value['subgroups.catalog.kept_ratio']:.4f}, {searches:.0f} searches)"
        )
    if value["groupoid.connected_component.calls"]:
        lines.append(
            f"gap: largest component has {value['groupoid.component.objects']:.0f} object(s) "
            f"over {value['groupoid.connected_component.calls']:.0f} component calls"
        )
    if workload == "cli-session":
        lines.append(
            f"gap: genuine commands rebuilt the catalog {value['cli.genuine.catalog_search.calls']:.0f} "
            "time(s) although catalog was already cached"
        )
        lines.append(
            f"gap: start-up is {value['cli.startup_share']:.2f} of a warm command's wall time "
            f"(median over the warm pass); a no-op start takes {value['cli.startup_ms']:.1f} ms"
        )
    return lines


def emit(correct, attempted, failed, metrics):
    doc = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "braidshadow", "__init__.py")):
        print("error: run from the root of a braidshadow checkout (src/braidshadow is missing)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

    try:
        if not args.trace:
            results = run_cycles(args.workload, args.seed, args.seconds, deadline)
            traced = None
        else:
            results = run_cycles(args.workload, args.seed, args.seconds / 2, deadline)
            traced = run_cycles(args.workload, args.seed, 0, deadline, mode="trace",
                                cycles=len(results))
        setup = setup_samples(args.workload, args.seed, results, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = results + (traced or [])
    attempted, failed, failures = check(everything)
    lines, consistent = digest_lines(args.workload, results)
    if traced is not None:
        # Tracing must not change a single output byte.
        consistent &= [r["digest"] for r in traced] == [r["digest"] for r in results]
    for line in lines:
        print(line)
    for line in failures:
        print(f"FAILED {line}")
    print(f"{len(results)} cycles, {len(setup) - len(results)} set-up probes, "
          f"{attempted} operations, {failed} failed")
    for name, value, unit, note in named_metrics(args.workload, results, setup):
        print(f"  {name:16s} {value:14.6g} {unit:6s} {note}")

    if not args.trace:
        values = end_to_end(args.workload, results, setup)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    else:
        snapshot, metrics = traced_metrics(args.workload, results, traced)
        for line in ranking_lines(args.workload, snapshot, metrics) + gap_lines(args.workload, metrics):
            print(line)
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.3f} s over "
              f"{sum(r['extra']['measure_s'] for r in results):.3f} s untraced")
        for name in snapshot["absent"]:
            print(f"absent: {name}")
    emit(failed == 0 and consistent, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
