"""Command-line surface: subgroup files, shadow sets, and a result cache.

File kinds:

* subgroup JSON (schema 1, strict): {"schema": 1, "label": str,
  "degree": n, "sigma1": [images], "sigma2": [images]}, the generator
  images defining N as a kernel.  Unknown fields, repeated keys and
  non-integer numbers (``true``, ``1.0``) are rejected.
* shadow set JSON: {"target": label, "n_ord": k, "shadows": [...]} where
  each shadow is {"m": int, "f": word text, "f_perm": [images],
  "source_label": str}.
* component / catalog / mainline JSON: reports described per command below.

Long computations (shadows, component, diamond, catalog, genuine, mainline)
go through a content-addressed cache: the key hashes the canonical input
documents plus the semantic flags, never labels alone and never the
``--threads`` value (accepted for compatibility; enumeration is serial),
so re-runs reuse results and yield byte-identical output.  Default
directory ``.braidshadow-cache/``, overridable with ``--cache-dir`` or the
BRAIDSHADOW_CACHE variable.

Every subcommand has one shape: ``_cmd_NAME(args)`` loads its files,
computes (through the cache where the work is long) and returns
``(document, lines)`` without printing; a cached command's lines are made
from the document by a function it hands to the cache, so an entry the
command cannot read is recomputed.  :func:`run_command` then writes
the document to ``--json PATH`` and prints ``wrote PATH``, or prints the
lines.

Exit codes: 0 success, 1 domain error (cap exceeded, containment failures,
invalid generator images), 2 usage or file errors, an unwritable
``--json`` or ``--save-dir`` path among them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

from .errors import BraidshadowError
from .groupoid import (
    connected_component,
    diamond,
    genuine_to_depth,
    main_line_limit,
    reduce_shadow,
    survives,
)
from .perms import DEFAULT_GROUP_SIZE_CAP, Permutation
from .shadows import (
    DEFAULT_CANDIDATE_CAP,
    GtShadow,
    enumerate_shadows,
    is_shadow,
    shadow_source,
)
from .subgroups import (
    DEFAULT_CATALOG_DEGREE_LIMIT,
    NfiSubgroup,
    catalog_search,
    new_nfi,
    object_key,
)
from .words import TAG_F2, word_from_text, word_to_text

_SUBGROUP_FIELDS = {"schema", "label", "degree", "sigma1", "sigma2"}


def load_subgroup(path: str, max_group_size: int = DEFAULT_GROUP_SIZE_CAP) -> NfiSubgroup:
    """Read and validate one subgroup file (strict schema 1, no repeated keys)."""

    def unique_keys(pairs):
        if len({key for key, _ in pairs}) < len(pairs):
            raise ValueError(f"{path}: repeated key in a JSON object")
        return dict(pairs)

    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    if type(doc.get("schema")) is not int or doc["schema"] != 1:
        raise ValueError(f"{path}: unsupported schema {doc.get('schema')!r}")
    unknown = sorted(set(doc) - _SUBGROUP_FIELDS)
    if unknown:
        raise ValueError(f"{path}: unknown fields {unknown}")
    missing = sorted(_SUBGROUP_FIELDS - set(doc))
    if missing:
        raise ValueError(f"{path}: missing fields {missing}")
    if not isinstance(doc["label"], str):
        raise ValueError(f"{path}: label must be a string")
    degree = doc["degree"]
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise ValueError(f"{path}: degree must be a positive integer")
    images = []
    for key in ("sigma1", "sigma2"):
        arr = doc[key]
        if (
            not isinstance(arr, list)
            or len(arr) != degree
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in arr)
        ):
            raise ValueError(f"{path}: {key} must be a list of {degree} integers")
        images.append(Permutation(tuple(arr)))
    return new_nfi(tuple(images), label=doc["label"], max_group_size=max_group_size)


def subgroup_doc(N: NfiSubgroup) -> dict:
    return {
        "schema": 1,
        "label": N.label,
        "degree": N.degree,
        "sigma1": list(N.hom.images[0].images),
        "sigma2": list(N.hom.images[1].images),
    }


def dump_doc(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_doc(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_doc(doc))


def shadow_doc(s: GtShadow) -> dict:
    return {
        "m": s.m,
        "f": word_to_text(s.f_word),
        "f_perm": list(s.f_elt.images),
        "source_label": shadow_source(s).label,
    }


# ---------------------------------------------------------------------------
# cache

def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _cache_get(path: str, key: str):
    """The payload of the entry at ``path``, or None when it is missing or malformed.

    An entry is used only if its ``key`` is the requested key and its
    ``sha256`` is the hash of its payload, so a payload changed after it
    was written is recomputed rather than read.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    payload = entry.get("payload")
    if not isinstance(payload, dict) or entry.get("sha256") != _sha256(payload):
        return None
    return payload


def _cached(args, content: dict, compute, render) -> tuple[dict, list[str]]:
    """The payload for ``content``, read from the cache or computed and
    stored, with the lines ``render`` makes of it.

    The key holds the command name and the caps besides ``content``, so a
    result computed by one command, or under one cap, is never printed by
    another command or under a cap that would refuse the work.  An entry
    that passes :func:`_cache_get` but that ``render`` cannot read (a
    payload rewritten together with its ``sha256``) is recomputed and
    overwritten too; errors from a fresh computation propagate.  A new
    entry is written to a temporary file and renamed into place.
    """
    key = _sha256({
        "schema": 1,
        "content": dict(
            content,
            command=args.command,
            max_candidates=args.max_candidates,
            max_group_size=args.max_group_size,
        ),
    })
    cdir = args.cache_dir or os.environ.get("BRAIDSHADOW_CACHE") or ".braidshadow-cache"
    path = os.path.join(cdir, key + ".json")
    payload = _cache_get(path, key)
    if payload is not None:
        try:
            return payload, render(payload)
        except (KeyError, TypeError, IndexError, AttributeError):
            pass
    payload = compute()
    os.makedirs(cdir, exist_ok=True)
    wrapper = {"key": key, "sha256": _sha256(payload), "payload": payload}
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(wrapper, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return payload, render(payload)


# ---------------------------------------------------------------------------
# shared helpers

def _load(args, path: str) -> NfiSubgroup:
    return load_subgroup(path, max_group_size=args.max_group_size)


def _catalog(args) -> list[NfiSubgroup]:
    return catalog_search(args.max_degree, max_group_size=args.max_group_size)


def _shadow_from_args(args, N: NfiSubgroup) -> GtShadow:
    f_word = word_from_text(args.f, TAG_F2)
    if not is_shadow(N, args.m, f_word):
        raise BraidshadowError(
            f"(m={args.m}, f={args.f or '(empty)'}) is not a shadow "
            f"with target {N.label}"
        )
    return GtShadow(N, args.m, f_word, N.data.f2_quotient.evaluate(f_word))


# ---------------------------------------------------------------------------
# subcommands: each returns (document, lines) for run_command to write

def _cmd_validate(args) -> tuple[dict, list[str]]:
    N = _load(args, args.file)
    return (
        {"valid": True, "label": N.label, "degree": N.degree},
        [f"valid: {N.label} (degree {N.degree})"],
    )


def _cmd_info(args) -> tuple[dict, list[str]]:
    N = _load(args, args.file)
    d = N.data
    facts = (  # (document key, line prefix, value)
        ("label", "label: ", N.label),
        ("degree", "degree: ", N.degree),
        ("b3_order", "|B3/N| = ", d.b3_quotient.order),
        ("n_ord", "N_ord = ", d.n_ord),
        ("index_pb3", "index_pb3 = ", d.index_pb3),
        ("index_f2", "index_f2 = ", d.index_f2),
        ("commutator_order", "|[F2/N_F2, F2/N_F2]| = ", d.f2_commutator.order),
    )
    return {key: value for key, _, value in facts}, [f"{text}{value}" for _, text, value in facts]


def _shadow_set_doc(args, N: NfiSubgroup) -> dict:
    shadows = enumerate_shadows(N, max_candidates=args.max_candidates)
    return {
        "target": N.label,
        "n_ord": N.data.n_ord,
        "shadows": [shadow_doc(s) for s in shadows],
    }


def _cmd_shadows(args) -> tuple[dict, list[str]]:
    N = _load(args, args.file)

    def render(doc):
        lines = [f"target {doc['target']}: {len(doc['shadows'])} shadows (N_ord {doc['n_ord']})"]
        for sd in doc["shadows"]:
            lines.append(
                f"  m={sd['m']} f={sd['f'] or '1'} source={sd['source_label']}"
            )
        return lines

    return _cached(args, {"subgroup": subgroup_doc(N)}, lambda: _shadow_set_doc(args, N), render)


def _component_doc(args, N: NfiSubgroup) -> dict:
    report = connected_component(N, max_candidates=args.max_candidates)
    order = sorted(range(len(report.objects)), key=lambda i: object_key(report.objects[i]))
    rank = {old: new for new, old in enumerate(order)}
    morphisms = {}
    for (src, tgt), shadows in report.morphisms.items():
        morphisms[f"{rank[src]}->{rank[tgt]}"] = [shadow_doc(s) for s in shadows]
    return {
        "objects": [subgroup_doc(report.objects[i]) for i in order],
        "morphisms": morphisms,
        "isolated": report.isolated,
        "diamond": subgroup_doc(report.diamond),
    }


def _cmd_component(args) -> tuple[dict, list[str]]:
    N = _load(args, args.file)

    def render(doc):
        n_morph = sum(len(v) for v in doc["morphisms"].values())
        return [
            f"component of {N.label}: {len(doc['objects'])} objects, "
            f"{n_morph} morphisms, isolated={doc['isolated']}",
            f"diamond: {doc['diamond']['label']} (degree {doc['diamond']['degree']})",
        ]

    return _cached(args, {"subgroup": subgroup_doc(N)}, lambda: _component_doc(args, N), render)


def _cmd_diamond(args) -> tuple[dict, list[str]]:
    N = _load(args, args.file)
    return _cached(
        args,
        {"subgroup": subgroup_doc(N)},
        lambda: subgroup_doc(diamond(N, args.max_candidates)),
        lambda doc: [f"diamond of {N.label}: {doc['label']} (degree {doc['degree']})"],
    )


def _cmd_reduce(args) -> tuple[dict, list[str]]:
    N = _load(args, args.file)
    H = _load(args, args.coarser)
    reduced = reduce_shadow(_shadow_from_args(args, N), H)
    sd = shadow_doc(reduced)
    return (
        {"target": H.label, "shadow": sd},
        [f"reduced to {H.label}: m={sd['m']} f={sd['f'] or '1'}"],
    )


def _cmd_survive(args) -> tuple[dict, list[str]]:
    H = _load(args, args.file)
    N = _load(args, args.finer)
    s = _shadow_from_args(args, H)
    ok = survives(s, N, args.max_candidates)
    verb = "survives" if ok else "does not survive"
    return (
        {"survives": ok, "shadow": shadow_doc(s), "into": N.label},
        [f"(m={s.m}, f={args.f or '1'}) {verb} into {N.label}"],
    )


def _cmd_genuine(args) -> tuple[dict, list[str]]:
    N = _load(args, args.file)
    s = _shadow_from_args(args, N)

    def compute():
        verdict = genuine_to_depth(s, _catalog(args), args.max_candidates)
        return {
            "verdict": verdict.kind,
            "checked": [entry.label for entry in verdict.checked],
            "witness": verdict.witness.label if verdict.witness else None,
            "reduce_image": (
                None
                if verdict.reduce_image is None
                else [shadow_doc(t) for t in verdict.reduce_image]
            ),
        }

    def render(doc):
        lines = [f"verdict: {doc['verdict']} (checked {len(doc['checked'])} subgroups)"]
        if doc["witness"]:
            lines.append(f"witness: {doc['witness']}")
        return lines

    return _cached(
        args,
        {
            "subgroup": subgroup_doc(N),
            "m": s.m,
            "f": word_to_text(s.f_word),
            "max_degree": args.max_degree,
        },
        compute,
        render,
    )


def _cmd_catalog(args) -> tuple[dict, list[str]]:
    def compute():
        out = []
        for entry in _catalog(args):
            d = entry.data
            shadows = enumerate_shadows(entry, max_candidates=args.max_candidates)
            out.append(
                {
                    "subgroup": subgroup_doc(entry),
                    "index_pb3": d.index_pb3,
                    "index_f2": d.index_f2,
                    "n_ord": d.n_ord,
                    "gt_count": len(shadows),
                }
            )
        return {"max_degree": args.max_degree, "entries": out}

    def render(doc):
        lines = [f"catalog (degree <= {doc['max_degree']}): {len(doc['entries'])} kernels"]
        for entry in doc["entries"]:
            lines.append(
                f"  {entry['subgroup']['label']}: degree={entry['subgroup']['degree']} "
                f"index_pb3={entry['index_pb3']} index_f2={entry['index_f2']} "
                f"n_ord={entry['n_ord']} |GT|={entry['gt_count']}"
            )
        if args.save_dir:
            os.makedirs(args.save_dir, exist_ok=True)
            for entry in doc["entries"]:
                path = os.path.join(
                    args.save_dir, entry["subgroup"]["label"] + ".json"
                )
                save_doc(path, entry["subgroup"])
            lines.append(f"saved {len(doc['entries'])} subgroup files to {args.save_dir}")
        return lines

    return _cached(args, {"max_degree": args.max_degree}, compute, render)


def _cmd_mainline(args) -> tuple[dict, list[str]]:
    catalog = [_load(args, path) for path in args.files]

    def compute():
        diagram, limit = main_line_limit(catalog, args.max_candidates)
        groups = [diagram.groups[i] for i in range(len(diagram.poset_objects))]
        indexers = [{s: k for k, s in enumerate(shadows)} for shadows in groups]
        edges = {}
        for (i, j), table in diagram.edges.items():
            edges[f"{i}->{j}"] = [
                [indexers[i][src], indexers[j][dst]] for src, dst in table.items()
            ]
        return {
            "objects": [subgroup_doc(obj) for obj in diagram.poset_objects],
            "groups": [[shadow_doc(s) for s in shadows] for shadows in groups],
            "edges": edges,
            "limit": [
                [indexers[i][s] for i, s in enumerate(tup)] for tup in limit
            ],
        }

    def render(doc):
        lines = [
            f"main line: {len(doc['objects'])} objects, {len(doc['edges'])} edges, "
            f"limit size {len(doc['limit'])}"
        ]
        for obj, group in zip(doc["objects"], doc["groups"]):
            lines.append(f"  {obj['label']}: |GT| = {len(group)}")
        return lines

    return _cached(
        args,
        {
            "subgroups": sorted(
                (subgroup_doc(entry) for entry in catalog),
                key=lambda d: json.dumps(d, sort_keys=True),
            ),
        },
        compute,
        render,
    )


# ---------------------------------------------------------------------------
# parser

# the integer flags every command takes, each at least 1: (flag, default, help)
_POSITIVE_FLAGS = (
    ("--max-group-size", DEFAULT_GROUP_SIZE_CAP, "cap on any single group closure"),
    ("--max-candidates", DEFAULT_CANDIDATE_CAP,
     "cap on an enumeration grid and on each main-line level"),
    ("--threads", 1, "accepted for compatibility; enumeration is serial"),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write machine output to PATH")
    common.add_argument("--cache-dir", metavar="DIR", help="result cache directory")
    for flag, default, text in _POSITIVE_FLAGS:
        common.add_argument(flag, type=int, default=default, help=text)
    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("file")
    shadow = argparse.ArgumentParser(add_help=False)
    shadow.add_argument("file", help="subgroup file of the shadow's target")
    shadow.add_argument("-m", type=int, required=True)
    shadow.add_argument("-f", default="", help="commutator word over x,y (default empty)")
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument(
        "--max-degree",
        type=int,
        default=4,
        help=f"largest symmetric group degree searched (at most {DEFAULT_CATALOG_DEGREE_LIMIT})",
    )

    parser = argparse.ArgumentParser(
        prog="braidshadow",
        description="Groupoid of GT-shadows over finite quotients of B3",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, parents, func, text in (
        ("validate", [single], _cmd_validate, "check a subgroup file"),
        ("info", [single], _cmd_info, "quotient data of a subgroup"),
        ("shadows", [single], _cmd_shadows, "enumerate GT(N)"),
        ("component", [single], _cmd_component, "connected component of a subgroup"),
        ("diamond", [single], _cmd_diamond, "intersection of the component"),
        ("reduce", [shadow], _cmd_reduce, "reduce a shadow to a coarser target"),
        ("survive", [shadow], _cmd_survive, "does a shadow survive into a finer subgroup"),
        ("genuine", [shadow, depth], _cmd_genuine, "search a catalog for a fakeness certificate"),
        ("catalog", [depth], _cmd_catalog, "distinct kernels from small degrees"),
        ("mainline", [], _cmd_mainline, "reduction diagram over isolated subgroups"),
    ):
        commands[name] = sub.add_parser(name, parents=[common, *parents], help=text)
        commands[name].set_defaults(func=func)
    commands["reduce"].add_argument("coarser", help="subgroup file containing the target")
    commands["survive"].add_argument("finer", help="subgroup file contained in the target")
    commands["catalog"].add_argument(
        "--save-dir", metavar="DIR", help="write one subgroup file per kernel"
    )
    commands["mainline"].add_argument("files", nargs="+", help="isolated subgroup files")
    return parser


def run_command(argv) -> int:
    """Parse argv, run the command, and write its document or print its lines.

    Returns the process exit code.  Writing ``--json`` happens inside the
    same ``try`` as the command, so an unwritable path is a file error.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag, _, _ in _POSITIVE_FLAGS:
            value = getattr(args, flag[2:].replace("-", "_"))
            if value < 1:
                raise ValueError(f"{flag} must be at least 1, got {value}")
        doc, lines = args.func(args)
        if args.json:
            save_doc(args.json, doc)
            lines = [f"wrote {args.json}"]
        for line in lines:
            print(line)
        return 0
    except BraidshadowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)
