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

Exit codes: 0 success, 1 domain error (cap exceeded, containment failures,
invalid generator images), 2 usage or file errors.
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

def _cache_dir(args) -> str:
    return (
        args.cache_dir
        or os.environ.get("BRAIDSHADOW_CACHE")
        or ".braidshadow-cache"
    )


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _cache_key(content: dict) -> str:
    return _sha256({"schema": 1, "content": content})


def _cache_get(args, content: dict):
    """The cached payload, or None when the entry is missing or malformed.

    An entry is used only if its ``key`` is the requested key and its
    ``sha256`` is the hash of its payload, so a payload changed after it
    was written is recomputed rather than read.
    """
    key = _cache_key(content)
    try:
        with open(os.path.join(_cache_dir(args), key + ".json"), encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(entry, dict) or entry.get("key") != key:
        return None
    payload = entry.get("payload")
    if not isinstance(payload, dict) or entry.get("sha256") != _sha256(payload):
        return None
    return payload


def _cache_put(args, content: dict, payload) -> None:
    cdir = _cache_dir(args)
    os.makedirs(cdir, exist_ok=True)
    wrapper = {"key": _cache_key(content), "sha256": _sha256(payload), "payload": payload}
    fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(wrapper, fh, sort_keys=True)
        os.replace(tmp, os.path.join(cdir, wrapper["key"] + ".json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cached(args, content: dict, compute):
    """The cached payload for ``content`` and the caps, computed on a miss.

    The caps are part of the key, so a result computed under one cap is
    never printed under another that would refuse the work.
    """
    content = dict(
        content, max_candidates=args.max_candidates, max_group_size=args.max_group_size
    )
    payload = _cache_get(args, content)
    if payload is None:
        payload = compute()
        _cache_put(args, content, payload)
    return payload


# ---------------------------------------------------------------------------
# shared helpers

def _emit(args, doc, human_lines) -> int:
    if args.json:
        save_doc(args.json, doc)
        print(f"wrote {args.json}")
    else:
        for line in human_lines:
            print(line)
    return 0


def _load(args, attr="file") -> NfiSubgroup:
    return load_subgroup(getattr(args, attr), max_group_size=args.max_group_size)


def _shadow_from_args(args, N: NfiSubgroup) -> GtShadow:
    f_word = word_from_text(args.f, TAG_F2)
    if not is_shadow(N, args.m, f_word):
        raise BraidshadowError(
            f"(m={args.m}, f={args.f or '(empty)'}) is not a shadow "
            f"with target {N.label}"
        )
    return GtShadow(N, args.m, f_word, N.data.f2_quotient.evaluate(f_word))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args) -> int:
    N = _load(args)
    return _emit(
        args,
        {"valid": True, "label": N.label, "degree": N.degree},
        [f"valid: {N.label} (degree {N.degree})"],
    )


def _cmd_info(args) -> int:
    N = _load(args)
    d = N.data
    doc = {
        "label": N.label,
        "degree": N.degree,
        "b3_order": d.b3_quotient.order,
        "n_ord": d.n_ord,
        "index_pb3": d.index_pb3,
        "index_f2": d.index_f2,
        "commutator_order": d.f2_commutator.order,
    }
    lines = [
        f"label: {N.label}",
        f"degree: {N.degree}",
        f"|B3/N| = {d.b3_quotient.order}",
        f"N_ord = {d.n_ord}",
        f"index_pb3 = {d.index_pb3}",
        f"index_f2 = {d.index_f2}",
        f"|[F2/N_F2, F2/N_F2]| = {d.f2_commutator.order}",
    ]
    return _emit(args, doc, lines)


def _shadow_set_doc(args, N: NfiSubgroup) -> dict:
    shadows = enumerate_shadows(N, max_candidates=args.max_candidates)
    return {
        "target": N.label,
        "n_ord": N.data.n_ord,
        "shadows": [shadow_doc(s) for s in shadows],
    }


def _cmd_shadows(args) -> int:
    N = _load(args)
    doc = _cached(
        args,
        {"command": "shadows", "subgroup": subgroup_doc(N)},
        lambda: _shadow_set_doc(args, N),
    )
    lines = [f"target {doc['target']}: {len(doc['shadows'])} shadows (N_ord {doc['n_ord']})"]
    for sd in doc["shadows"]:
        lines.append(
            f"  m={sd['m']} f={sd['f'] or '1'} source={sd['source_label']}"
        )
    return _emit(args, doc, lines)


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


def _cmd_component(args) -> int:
    N = _load(args)
    doc = _cached(
        args,
        {"command": "component", "subgroup": subgroup_doc(N)},
        lambda: _component_doc(args, N),
    )
    n_morph = sum(len(v) for v in doc["morphisms"].values())
    lines = [
        f"component of {N.label}: {len(doc['objects'])} objects, "
        f"{n_morph} morphisms, isolated={doc['isolated']}",
        f"diamond: {doc['diamond']['label']} (degree {doc['diamond']['degree']})",
    ]
    return _emit(args, doc, lines)


def _cmd_diamond(args) -> int:
    N = _load(args)
    doc = _cached(
        args,
        {"command": "diamond", "subgroup": subgroup_doc(N)},
        lambda: subgroup_doc(diamond(N, args.max_candidates)),
    )
    lines = [f"diamond of {N.label}: {doc['label']} (degree {doc['degree']})"]
    return _emit(args, doc, lines)


def _cmd_reduce(args) -> int:
    N = _load(args)
    H = load_subgroup(args.coarser, max_group_size=args.max_group_size)
    s = _shadow_from_args(args, N)
    reduced = reduce_shadow(s, H)
    doc = {"target": H.label, "shadow": shadow_doc(reduced)}
    sd = doc["shadow"]
    return _emit(
        args,
        doc,
        [f"reduced to {H.label}: m={sd['m']} f={sd['f'] or '1'}"],
    )


def _cmd_survive(args) -> int:
    H = _load(args)
    N = load_subgroup(args.finer, max_group_size=args.max_group_size)
    s = _shadow_from_args(args, H)
    ok = survives(s, N, args.max_candidates)
    doc = {"survives": ok, "shadow": shadow_doc(s), "into": N.label}
    verb = "survives" if ok else "does not survive"
    return _emit(args, doc, [f"(m={s.m}, f={args.f or '1'}) {verb} into {N.label}"])


def _cmd_genuine(args) -> int:
    N = _load(args)
    s = _shadow_from_args(args, N)

    def compute():
        catalog = catalog_search(args.max_degree, max_group_size=args.max_group_size)
        verdict = genuine_to_depth(s, catalog, args.max_candidates)
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

    doc = _cached(
        args,
        {
            "command": "genuine",
            "subgroup": subgroup_doc(N),
            "m": s.m,
            "f": word_to_text(s.f_word),
            "max_degree": args.max_degree,
        },
        compute,
    )
    lines = [f"verdict: {doc['verdict']} (checked {len(doc['checked'])} subgroups)"]
    if doc["witness"]:
        lines.append(f"witness: {doc['witness']}")
    return _emit(args, doc, lines)


def _cmd_catalog(args) -> int:
    def compute():
        entries = catalog_search(args.max_degree, max_group_size=args.max_group_size)
        out = []
        for entry in entries:
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

    doc = _cached(args, {"command": "catalog", "max_degree": args.max_degree}, compute)
    lines = [f"catalog (degree <= {doc['max_degree']}): {len(doc['entries'])} kernels"]
    for entry in doc["entries"]:
        lines.append(
            "  {label}: degree={degree} index_pb3={ip} index_f2={if2} "
            "n_ord={n} |GT|={gt}".format(
                label=entry["subgroup"]["label"],
                degree=entry["subgroup"]["degree"],
                ip=entry["index_pb3"],
                if2=entry["index_f2"],
                n=entry["n_ord"],
                gt=entry["gt_count"],
            )
        )
    if args.save_dir:
        os.makedirs(args.save_dir, exist_ok=True)
        for entry in doc["entries"]:
            path = os.path.join(
                args.save_dir, entry["subgroup"]["label"] + ".json"
            )
            save_doc(path, entry["subgroup"])
        lines.append(f"saved {len(doc['entries'])} subgroup files to {args.save_dir}")
    return _emit(args, doc, lines)


def _cmd_mainline(args) -> int:
    catalog = [
        load_subgroup(path, max_group_size=args.max_group_size)
        for path in args.files
    ]

    def compute():
        diagram, limit = main_line_limit(catalog, args.max_candidates)
        group_docs = []
        indexers = []
        for i, obj in enumerate(diagram.poset_objects):
            shadows = diagram.groups[i]
            group_docs.append([shadow_doc(s) for s in shadows])
            indexers.append({s: k for k, s in enumerate(shadows)})
        edges = {}
        for (i, j), table in diagram.edges.items():
            edges[f"{i}->{j}"] = [
                [indexers[i][src], indexers[j][dst]] for src, dst in table.items()
            ]
        return {
            "objects": [subgroup_doc(obj) for obj in diagram.poset_objects],
            "groups": group_docs,
            "edges": edges,
            "limit": [
                [indexers[i][s] for i, s in enumerate(tup)] for tup in limit
            ],
        }

    doc = _cached(
        args,
        {
            "command": "mainline",
            "subgroups": sorted(
                (subgroup_doc(entry) for entry in catalog),
                key=lambda d: json.dumps(d, sort_keys=True),
            ),
        },
        compute,
    )
    lines = [
        f"main line: {len(doc['objects'])} objects, {len(doc['edges'])} edges, "
        f"limit size {len(doc['limit'])}"
    ]
    for obj, group in zip(doc["objects"], doc["groups"]):
        lines.append(f"  {obj['label']}: |GT| = {len(group)}")
    return _emit(args, doc, lines)


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write machine output to PATH")
    common.add_argument("--cache-dir", metavar="DIR", help="result cache directory")
    common.add_argument(
        "--max-group-size",
        type=int,
        default=DEFAULT_GROUP_SIZE_CAP,
        help="cap on any single group closure",
    )
    common.add_argument(
        "--max-candidates",
        type=int,
        default=DEFAULT_CANDIDATE_CAP,
        help="cap on an enumeration grid and on each main-line level",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; enumeration is serial",
    )

    parser = argparse.ArgumentParser(
        prog="braidshadow",
        description="Groupoid of GT-shadows over finite quotients of B3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a subgroup file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", parents=[common], help="quotient data of a subgroup")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("shadows", parents=[common], help="enumerate GT(N)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_shadows)

    p = sub.add_parser(
        "component", parents=[common], help="connected component of a subgroup"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_component)

    p = sub.add_parser(
        "diamond", parents=[common], help="intersection of the component"
    )
    p.add_argument("file")
    p.set_defaults(func=_cmd_diamond)

    p = sub.add_parser(
        "reduce", parents=[common], help="reduce a shadow to a coarser target"
    )
    p.add_argument("file", help="subgroup file of the shadow's target")
    p.add_argument("coarser", help="subgroup file containing the target")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-f", default="", help="commutator word over x,y (default empty)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser(
        "survive", parents=[common], help="does a shadow survive into a finer subgroup"
    )
    p.add_argument("file", help="subgroup file of the shadow's target")
    p.add_argument("finer", help="subgroup file contained in the target")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-f", default="", help="commutator word over x,y (default empty)")
    p.set_defaults(func=_cmd_survive)

    p = sub.add_parser(
        "genuine", parents=[common], help="search a catalog for a fakeness certificate"
    )
    p.add_argument("file", help="subgroup file of the shadow's target")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-f", default="", help="commutator word over x,y (default empty)")
    p.add_argument(
        "--max-degree",
        type=int,
        default=4,
        help=f"catalog search depth (at most {DEFAULT_CATALOG_DEGREE_LIMIT})",
    )
    p.set_defaults(func=_cmd_genuine)

    p = sub.add_parser(
        "catalog", parents=[common], help="distinct kernels from small degrees"
    )
    p.add_argument(
        "--max-degree",
        type=int,
        default=4,
        help=f"largest symmetric group degree (at most {DEFAULT_CATALOG_DEGREE_LIMIT})",
    )
    p.add_argument("--save-dir", metavar="DIR", help="write one subgroup file per kernel")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "mainline", parents=[common], help="reduction diagram over isolated subgroups"
    )
    p.add_argument("files", nargs="+", help="isolated subgroup files")
    p.set_defaults(func=_cmd_mainline)

    return parser


def run_command(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag in ("threads", "max_candidates", "max_group_size"):
            value = getattr(args, flag)
            if value < 1:
                name = "--" + flag.replace("_", "-")
                raise ValueError(f"{name} must be at least 1, got {value}")
        return args.func(args)
    except BraidshadowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)
