"""Regenerate the frozen inputs and expectations under ``perfbench/data``.

The benchmark never runs this script.  It records, from the library as it
stands, the generator images of the groupoid-query pool, each target's
invariants and first-touch cost, and the exit code and first output line of
every command the CLI session can issue.  Run it from the repository root:

    python3 perfbench/make_data.py

and commit the result only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import platform
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "perfbench", "data")
sys.path.insert(0, os.path.join(ROOT, "src"))

import braidshadow as bs  # noqa: E402
from braidshadow.cli import dump_doc, run_command, subgroup_doc  # noqa: E402
from braidshadow.errors import GroupSizeCapExceeded  # noqa: E402
from braidshadow.perms import Permutation  # noqa: E402

# cat05 & cat06 (|B3/N| = 4320) is left out: one component query on it
# takes about 17 s.
EXCLUDED_MEETS = {("cat05", "cat06")}


def _write(name: str, doc) -> None:
    with open(os.path.join(DATA, name), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _first_touch(N):
    start = time.perf_counter()
    report = bs.connected_component(N)
    return time.perf_counter() - start, report


def build_pool() -> None:
    catalog = bs.catalog_search(5)
    targets = []  # (file stem, kind, subgroup, extra manifest fields)
    for N in catalog:
        targets.append((N.label, "kernel", N, {}))
    for A, B in itertools.combinations(catalog, 2):
        if (A.label, B.label) in EXCLUDED_MEETS:
            continue
        M = bs.nfi_intersect([A, B], label=f"{A.label}&{B.label}")
        if bs.nfi_equal(M, A) or bs.nfi_equal(M, B):
            continue
        targets.append((f"meet_{A.label}_{B.label}", "meet", M, {"parents": [A.label, B.label]}))
    s3 = [Permutation(t) for t in itertools.permutations(range(3))]
    cores: dict[str, dict] = {}
    for p, q in itertools.product(s3, repeat=2):
        psi = [list(p.images), list(q.images)]
        stem = "core_" + "".join(map(str, p.images)) + "_" + "".join(map(str, q.images))
        N = bs.from_f2_quotient((p, q), label=stem)
        known = cores.get(N.content_id)
        if known is None:
            cores[N.content_id] = {"psi": [psi]}
            targets.append((stem, "core", N, cores[N.content_id]))
        else:
            known["psi"].append(psi)

    manifest = []
    for stem, kind, N, extra in targets:
        cost, report = _first_touch(N)
        d = N.data
        with open(os.path.join(DATA, "pool", stem + ".json"), "w", encoding="utf-8") as fh:
            fh.write(dump_doc(subgroup_doc(N)))
        manifest.append(
            dict(
                extra,
                file=f"pool/{stem}.json",
                label=N.label,
                kind=kind,
                content_id=N.content_id,
                degree=N.degree,
                b3_order=d.b3_quotient.order,
                n_ord=d.n_ord,
                index_pb3=d.index_pb3,
                index_f2=d.index_f2,
                commutator_order=d.f2_commutator.order,
                gt=len(bs.enumerate_shadows(N)),
                component_objects=len(report.objects),
                first_touch_s=round(cost, 4),
            )
        )

    # (finer, coarser) pairs with coarser a catalog kernel, for reduce/survive.
    by_label = {N.label: N for _, _, N, _ in targets}
    contained = []
    for finer in [t for t in manifest if t["kind"] != "core"]:
        for coarser in [t for t in manifest if t["kind"] == "kernel"]:
            if finer["label"] == coarser["label"]:
                continue
            F, C = by_label[finer["label"]], by_label[coarser["label"]]
            try:
                if bs.nfi_contains(F, C) and not bs.nfi_equal(F, C):
                    contained.append([F.label, C.label])
            except GroupSizeCapExceeded:
                continue
    _write(
        "pool.json",
        {
            "measured_on": f"{platform.machine()} x{os.cpu_count()}, "
            f"CPython {platform.python_version()}; first_touch_s is one "
            "connected_component call in pool order, caches shared",
            "targets": manifest,
            "contained": contained,
        },
    )


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    text = out.getvalue() if code == 0 else err.getvalue()
    return code, (text.splitlines() or [""])[0]


def build_cli_expectations() -> None:
    """Exit code and first line of every command the session can draw."""
    commands: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        save = os.path.join(tmp, "subgroups")
        cache = os.path.join(tmp, "cache")

        def record(key: str, argv: list[str]) -> None:
            code, line = _run(argv + ["--cache-dir", cache])
            commands[key] = {"exit": code, "first_line": line}

        record("catalog", ["catalog", "--max-degree", "4", "--save-dir", save])
        catalog = bs.catalog_search(4)
        labels = [N.label for N in catalog]

        def path(label: str) -> str:
            return os.path.join(save, label + ".json")

        for label in labels:
            for cmd in ("info", "shadows", "component", "diamond"):
                record(f"{cmd} {label}", [cmd, path(label)])
        shadows = {N.label: bs.enumerate_shadows(N) for N in catalog}
        for N in catalog:
            for s in shadows[N.label]:
                f = bs.word_to_text(s.f_word)
                record(f"genuine {N.label} {s.m} {f}",
                       ["genuine", path(N.label), "-m", str(s.m), "-f", f, "--max-degree", "4"])
        for F, C in itertools.permutations(catalog, 2):
            if not bs.nfi_contains(F, C) or bs.nfi_equal(F, C):
                continue
            for s in shadows[F.label]:
                f = bs.word_to_text(s.f_word)
                record(f"reduce {F.label} {C.label} {s.m} {f}",
                       ["reduce", path(F.label), path(C.label), "-m", str(s.m), "-f", f])
                r = bs.reduce_shadow(s, C)
                rf = bs.word_to_text(r.f_word)
                record(f"survive {C.label} {F.label} {r.m} {rf}",
                       ["survive", path(C.label), path(F.label), "-m", str(r.m), "-f", rf])
        for size in (2, 3):
            for subset in itertools.combinations(labels, size):
                record("mainline " + " ".join(subset), ["mainline", *map(path, subset)])
        record("nonshadow cat02 1", ["survive", path("cat02"), path("cat04"), "-m", "1"])
    _write("cli_expect.json", {"labels": labels, "commands": commands})


if __name__ == "__main__":
    os.makedirs(os.path.join(DATA, "pool"), exist_ok=True)
    build_pool()
    build_cli_expectations()
