"""One benchmark cycle in a fresh interpreter, so the package's memo caches
start cold.

    python3 perfbench/child.py --workload NAME --seed N --cycle I
        [--mode setup|run|trace]

The child sets up (imports the package, generates the cycle's inputs from
the seed, loads any input files), prints nothing during the measured phase,
and ends with one JSON line: the monotonic time at which set-up finished,
one ``[kind, seconds, ok]`` entry per operation, a digest of the outputs,
its peak RSS and, in trace mode, the tracer's snapshot.  ``--mode setup``
stops after set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# Frozen rows of a cold ``braidshadow catalog --max-degree 5``:
# (degree, index_pb3, n_ord, |GT|) per kernel.
CATALOG5_ROWS = [
    (4, 1, 1, 1),
    (7, 2, 2, 2),
    (6, 3, 3, 2),
    (7, 4, 2, 2),
    (8, 5, 5, 4),
    (7, 12, 3, 6),
    (8, 60, 5, 20),
]
BRAIDS_PER_LENGTH = 24  # 984 braid words and 82 F2 words a cycle
F2_PER_LENGTH = 2
CACHED_COMMANDS = {"shadows", "component", "diamond", "genuine", "catalog", "mainline"}


def _load_json(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


class Outputs:
    """Operation log plus a running digest of canonical outputs."""

    def __init__(self):
        self.ops = []
        self.failures = []
        self._hash = hashlib.sha256()
        self.digested = 0
        self.extra = {}

    def record(self, kind, seconds, ok, output, detail=""):
        self.ops.append([kind, seconds, bool(ok)])
        if not ok and len(self.failures) < 5:
            self.failures.append(f"{kind}: {detail or output!r}")

    def digest(self, output):
        self._hash.update(json.dumps(output, sort_keys=True).encode())
        self._hash.update(b"\n")
        self.digested += 1

    def hexdigest(self):
        return self._hash.hexdigest()


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


# ---------------------------------------------------------------------------
# catalog-d5: the work of a cold ``braidshadow catalog --max-degree 5``


def catalog_setup(seed, cycle):
    import braidshadow  # noqa: F401

    return None


def catalog_run(_state, out, tracing):
    import braidshadow as bs

    def cold_catalog():
        rows, ids = [], []
        for N in bs.catalog_search(5, threads=1):
            d = N.data
            gt = len(bs.enumerate_shadows(N, threads=1))
            rows.append((N.degree, d.index_pb3, d.n_ord, gt))
            ids.append(N.content_id)
        return rows, ids

    seconds, (rows, ids) = _timed(cold_catalog)
    output = {"rows": rows, "content_ids": ids}
    out.digest(output)
    out.record("catalog", seconds, [tuple(r) for r in rows] == CATALOG5_ROWS, output)


# ---------------------------------------------------------------------------
# groupoid-queries: a closed loop of queries over a frozen pool of targets

# Each target is visited in this fixed order, so its cold work always falls
# on the same queries; the seed interleaves the targets.
QUERIES_PER_TARGET = ("info", "shadows", "component", "diamond", "roundtrip")
SEEDED_QUERIES = {"reduce": 12, "survive": 12, "genuine": 8, "mainline": 3, "meet": 6, "core": 6}


def groupoid_setup(seed, cycle):
    from braidshadow.cli import load_subgroup

    manifest = _load_json("pool.json")
    targets = manifest["targets"]
    pool = {t["label"]: load_subgroup(os.path.join(DATA, t["file"])) for t in targets}
    info = {t["label"]: t for t in targets}
    kernels = [t["label"] for t in targets if t["kind"] == "kernel"]
    core_of = {}
    for t in targets:
        for psi in t.get("psi", ()):
            core_of[json.dumps(psi)] = t["label"]
    rng = random.Random(f"groupoid-queries:{seed}:{cycle}")
    # Cross-target queries, each with the targets it touches.
    cross = []
    for kind, count in SEEDED_QUERIES.items():
        for _ in range(count):
            if kind in ("reduce", "survive"):
                args = tuple(rng.choice(manifest["contained"]))
                needs = args
            elif kind == "genuine":
                args = (rng.choice(kernels),)
                needs = kernels
            elif kind == "mainline":
                args = tuple(sorted(rng.sample(kernels, 3)))
                needs = args
            elif kind == "meet":
                args = (rng.choice([t["label"] for t in targets if t["kind"] == "meet"]),)
                needs = (args[0], *info[args[0]]["parents"])
            else:
                args = (rng.choice(sorted(core_of)),)
                needs = (core_of[args[0]],)
            cross.append((kind, args, rng.randrange(1 << 30), set(needs)))
    # Interleave: at each step one unfinished target advances, or one
    # cross-target query whose targets have all had their component query.
    visits = {label: list(QUERIES_PER_TARGET) for label in pool}
    opened: set[str] = set()
    queries = []
    while visits or cross:
        ready = [q for q in cross if q[3] <= opened]
        choice = rng.randrange(len(visits) + len(ready))
        if choice < len(visits):
            label = sorted(visits)[choice]
            kind = visits[label].pop(0)
            if not visits[label]:
                del visits[label]
            if kind == "component":
                opened.add(label)
            queries.append((kind, (label,), rng.randrange(1 << 30)))
        else:
            q = ready[choice - len(visits)]
            cross.remove(q)
            queries.append(q[:3])
    return {"pool": pool, "info": info, "kernels": kernels, "core_of": core_of, "queries": queries}


def _shadow_key(s):
    from braidshadow.words import word_to_text

    return [s.m, word_to_text(s.f_word)]


def _query(state, kind, args, pick):
    """Run one query; return (ok, canonical output, content ids it touched)."""
    import braidshadow as bs
    from braidshadow.perms import Permutation

    pool, info = state["pool"], state["info"]
    if kind == "core":
        psi = json.loads(args[0])
        label = state["core_of"][args[0]]
        N = bs.from_f2_quotient(tuple(Permutation(tuple(p)) for p in psi))
        return N.content_id == info[label]["content_id"], N.content_id, [N.content_id]
    if kind == "meet":
        M = pool[args[0]]
        A, B = (pool[p] for p in info[args[0]]["parents"])
        got = bs.nfi_intersect([A, B])
        ok = got.content_id == M.content_id and bs.nfi_contains(got, A)
        return ok, got.content_id, [M.content_id, A.content_id]
    if kind == "mainline":
        chain = [pool[label] for label in args]
        diagram, limit = bs.main_line_limit(chain, threads=1)
        unit = tuple(bs.identity_shadow(N) for N in diagram.poset_objects)
        output = [len(limit), [len(g) for g in diagram.groups.values()], len(diagram.edges)]
        return unit in limit, output, [N.content_id for N in chain]
    T = pool[args[0]]
    expect = info[args[0]]
    if kind == "info":
        d = T.data
        got = [d.b3_quotient.order, d.n_ord, d.index_pb3, d.index_f2, d.f2_commutator.order]
        want = [expect[k] for k in ("b3_order", "n_ord", "index_pb3", "index_f2", "commutator_order")]
        return got == want, got, [T.content_id]
    if kind == "shadows":
        shadows = bs.enumerate_shadows(T, threads=1)
        return len(shadows) == expect["gt"], [_shadow_key(s) for s in shadows], [T.content_id]
    if kind == "component":
        report = bs.connected_component(T, threads=1)
        n_morph = sum(len(v) for v in report.morphisms.values())
        got = [len(report.objects), n_morph, report.isolated]
        ok = got[:2] == [expect["component_objects"], expect["gt"]]
        return ok, got, [T.content_id]
    if kind == "diamond":
        D = bs.diamond(T, threads=1)
        return bs.nfi_contains(D, T), D.content_id, [T.content_id]
    shadows = bs.enumerate_shadows(T, threads=1)
    s = shadows[pick % len(shadows)]
    if kind == "roundtrip":
        inverse = bs.invert_shadow(s)
        ok = bs.compose_shadows(s, inverse) == bs.identity_shadow(T)
        return ok, [_shadow_key(s), _shadow_key(inverse)], [T.content_id]
    if kind == "genuine":
        if pick % 3 == 0:
            s = bs.identity_shadow(T)
        kernels = [pool[k] for k in state["kernels"]]
        verdict = bs.genuine_to_depth(s, kernels, threads=1)
        ok = verdict.kind == "not_fake_to_depth" or (
            pick % 3 != 0
            and s not in [bs.reduce_shadow(t, T) for t in bs.enumerate_shadows(verdict.witness)]
        )
        return ok, [_shadow_key(s), verdict.kind, [e.label for e in verdict.checked]], [T.content_id]
    C = pool[args[1]]
    if kind == "reduce":
        r = bs.reduce_shadow(s, C)
        ok = bs.is_shadow(T, s.m, s.f_word) and r in set(bs.enumerate_shadows(C, threads=1))
        return ok, _shadow_key(r), [T.content_id, C.content_id]
    if kind == "survive":
        r = bs.reduce_shadow(s, C)
        ok = bs.is_shadow(C, r.m, r.f_word) and bs.survives(r, T, threads=1)
        return ok, [_shadow_key(r), ok], [T.content_id, C.content_id]
    raise ValueError(f"unknown query kind {kind}")


def groupoid_run(state, out, tracing):
    touched = set()
    repeats = 0
    for kind, args, pick in state["queries"]:
        start = time.perf_counter()
        try:
            ok, output, ids = _query(state, kind, args, pick)
            detail = ""
        except Exception as exc:  # a crash is a failed query, not a lost run
            ok, output, ids, detail = False, None, [], f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if ids and all(i in touched for i in ids):
            repeats += 1
        touched.update(ids)
        out.digest([kind, list(args), pick % 997, output])
        out.record(f"{kind}", seconds, ok, output, detail)
    out.extra["touched_repeats"] = repeats


# ---------------------------------------------------------------------------
# word-oracle: seeded braid and F2 words through the word layer


def word_setup(seed, cycle):
    import braidshadow.words  # noqa: F401

    return {"rng": random.Random(f"word-oracle:{seed}:{cycle}")}


def _random_letters(rng, max_len):
    return tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randrange(max_len + 1)))


def _commutator(rng, words):
    u = words.FreeWord(words.TAG_F2, _random_letters(rng, 2) or ((0, 1),))
    v = words.FreeWord(words.TAG_F2, _random_letters(rng, 2) or ((1, 1),))
    return u * v * u.inv() * v.inv()


def _braid_op(words, w):
    nf = words.b3_normal_form(w)
    ok = words.artin_equal(w, nf.reassemble())
    return ok, [words.word_to_text(nf.f2_part), nf.c_exponent, nf.coset_index]


def _f2_op(words, w, pairs, probe):
    (m1, f1), (m2, f2), (m3, f3) = pairs
    ok = words.theta(words.theta(w)) == w and words.tau(words.tau(words.tau(w))) == w
    m12, f12 = words.bullet_monoid(m1, f1, m2, f2)
    left = words.bullet_monoid(m12, f12, m3, f3)
    right = words.bullet_monoid(m1, f1, *words.bullet_monoid(m2, f2, m3, f3))
    ok = ok and left == right
    ok = ok and words.e_endo(m12, f12, probe) == words.e_endo(m1, f1, words.e_endo(m2, f2, probe))
    return ok, [left[0], len(left[1])]


def word_run(state, out, tracing):
    from braidshadow import words

    rng = state["rng"]
    # Lengths are uniform on 0..40 as in test_a02, but stratified: every
    # length occurs equally often in a cycle, so cycles share their length mix.
    plan = [("braid", n) for n in range(41)] * BRAIDS_PER_LENGTH
    plan += [("f2", n) for n in range(41)] * F2_PER_LENGTH
    rng.shuffle(plan)
    for kind, length in plan:
        letters = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(length))
        if kind == "braid":
            args = (words, words.FreeWord(words.TAG_B3, letters))
            op = _braid_op
        else:
            w = words.FreeWord(words.TAG_F2, letters)
            pairs = [(rng.randrange(3), _commutator(rng, words)) for _ in range(3)]
            args = (words, w, pairs, words.FreeWord(words.TAG_F2, w.letters[:8]))
            op = _f2_op
        seconds, (ok, output) = _timed(op, *args)
        out.digest([kind, output])
        out.record(kind, seconds, ok, output)


# ---------------------------------------------------------------------------
# cli-session: ``python -m braidshadow`` processes against a fresh cache


def cli_setup(seed, cycle):
    import braidshadow.cli  # noqa: F401

    expect = _load_json("cli_expect.json")
    universe = expect["commands"]
    rng = random.Random(f"cli-session:{seed}:{cycle}")
    keys = [f"{cmd} {label}" for label in expect["labels"] for cmd in ("info", "shadows", "component", "diamond")]
    for kind, count in (("reduce", 3), ("survive", 3), ("genuine", 2), ("mainline", 1)):
        keys += rng.sample(sorted(k for k in universe if k.split()[0] == kind), count)
    keys += ["nonshadow cat02 1", "malformed"]
    rng.shuffle(keys)
    cold = ["catalog"] + keys
    warm = list(cold)
    rng.shuffle(warm)
    return {"universe": universe, "passes": (("cold", cold), ("warm", warm))}


def _cli_argv(key, work):
    saved = os.path.join(work, "subgroups")
    parts = key.split(" ")

    def path(label):
        return os.path.join(saved, label + ".json")

    kind = parts[0]
    if kind == "catalog":
        argv = ["catalog", "--max-degree", "4", "--save-dir", saved]
    elif kind in ("info", "shadows", "component", "diamond"):
        argv = [kind, path(parts[1])]
    elif kind == "genuine":
        argv = ["genuine", path(parts[1]), "-m", parts[2], "-f", parts[3], "--max-degree", "4"]
    elif kind in ("reduce", "survive"):
        argv = [kind, path(parts[1]), path(parts[2]), "-m", parts[3], "-f", parts[4]]
    elif kind == "mainline":
        argv = ["mainline", *map(path, parts[1:])]
    elif kind == "nonshadow":
        argv = ["survive", path(parts[1]), path("cat04"), "-m", parts[2]]
    else:  # malformed
        argv = ["info", os.path.join(work, "malformed.json")]
    return argv + ["--cache-dir", os.path.join(work, "cache")]


def _cache_files(cache):
    try:
        return {e.name: e.stat().st_size for e in os.scandir(cache) if e.name.endswith(".json")}
    except FileNotFoundError:
        return {}


def cli_run(state, out, tracing):
    work = os.path.join(os.getcwd(), ".perfbench_work", f"cli-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        _cli_session(state, out, tracing, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


def _cli_session(state, out, tracing, work):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    env.pop("BRAIDSHADOW_CACHE", None)
    with open(os.path.join(work, "malformed.json"), "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "label": "bad", "degree": 3, "sigma1": [1, 0, 2],
                   "sigma2": [0, 2, 1], "bogus": 1}, fh)
    snapshots = []
    cache_stats = {"hits": 0, "misses": 0, "bytes_written": 0, "warm_hits": 0, "warm_cacheable": 0}
    session_s = 0.0
    startup, warm_shares = [], []
    genuine_catalog_calls = 0
    trace_file = os.path.join(work, "trace.json")
    for phase, keys in state["passes"]:
        for key in keys:
            argv = _cli_argv(key, work)
            if tracing:
                cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), trace_file, *argv]
            else:
                cmd = [sys.executable, "-m", "braidshadow", *argv]
            before = _cache_files(os.path.join(work, "cache"))
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=120)
            seconds = time.perf_counter() - start
            after = _cache_files(os.path.join(work, "cache"))
            kind = key.split(" ")[0]
            if kind in CACHED_COMMANDS:
                new = set(after) - set(before)
                if new:
                    cache_stats["misses"] += 1
                    cache_stats["bytes_written"] += sum(after[n] for n in new)
                else:
                    cache_stats["hits"] += 1
                    cache_stats["warm_hits"] += phase == "warm"
                cache_stats["warm_cacheable"] += phase == "warm"
            stream = proc.stdout if proc.returncode == 0 else proc.stderr
            first = (stream.splitlines() or [""])[0]
            if key == "malformed":
                ok = proc.returncode == 2 and re.fullmatch(r"error: .*unknown fields \['bogus'\]", first)
            else:
                want = state["universe"][key]
                ok = proc.returncode == want["exit"] and first == want["first_line"]
            ok = bool(ok) and "Traceback" not in proc.stderr
            detail = f"exit {proc.returncode}: {first!r} {proc.stderr[-300:]!r}"
            out.digest([phase, key, proc.returncode, first if key != "malformed" else "malformed"])
            out.record(f"{phase}:{kind}", seconds, ok, first, detail)
            session_s += seconds
            if tracing and os.path.exists(trace_file):
                with open(trace_file, encoding="utf-8") as fh:
                    shim = json.load(fh)
                os.unlink(trace_file)
                snapshots.append(shim["snapshot"])
                startup.append(seconds - shim["run_s"])
                if phase == "warm":
                    warm_shares.append((seconds - shim["run_s"]) / seconds)
                if kind == "genuine" and phase == "cold":
                    genuine_catalog_calls += shim["snapshot"]["spans"]["subgroups.catalog_search"][0]
    out.extra.update(cache_stats=cache_stats, session_s=session_s)
    if tracing:
        from tracer import merge

        out.extra.update(
            snapshot=merge(snapshots),
            startup_s=sum(startup),
            warm_startup_shares=warm_shares,
            genuine_catalog_calls=genuine_catalog_calls,
            noop_start_ms=_noop_start_ms(env, work),
        )
    out.extra["child_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _noop_start_ms(env, work, repeats=5):
    """Interpreter start plus ``import braidshadow.cli``, median of a few."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import braidshadow.cli"], cwd=work, env=env,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


WORKLOADS = {
    "catalog-d5": (catalog_setup, catalog_run),
    "groupoid-queries": (groupoid_setup, groupoid_run),
    "word-oracle": (word_setup, word_run),
    "cli-session": (cli_setup, cli_run),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycle", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    setup, run = WORKLOADS[args.workload]

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    state = setup(args.seed, args.cycle)
    ready = time.monotonic()
    out = Outputs()
    if args.mode != "setup":
        if tracer is not None and args.workload != "cli-session":
            tracer.install()
        start = time.perf_counter()
        try:
            run(state, out, tracer is not None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.extra["measure_s"] = time.perf_counter() - start
        if tracer is not None and args.workload != "cli-session":
            out.extra["snapshot"] = tracer.snapshot()
    result = {
        "ready": ready,
        "ops": out.ops,
        "failures": out.failures,
        "digest": out.hexdigest(),
        "digested": out.digested,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "extra": out.extra,
    }
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
