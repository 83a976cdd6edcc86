"""Global structure of the shadow groupoid.

Connected components, isolated objects, the diamond (intersection of a
component), reduction maps between comparable targets, survival, the
finite-depth fake-shadow search, and limits of reduction diagrams over a
finite poset of isolated objects.

Reduction is one walk of B3/N into B3/H per pair of objects (which also
decides N <= H), applied to each shadow's f image.

The ``threads`` parameter of :func:`connected_component`, :func:`diamond`,
:func:`survives`, :func:`genuine_to_depth` and :func:`main_line_limit` is
accepted for compatibility and ignored: enumeration is serial.  Every ``max_candidates`` is passed to each
:func:`enumerate_shadows` call a function makes; :func:`main_line_limit`
also applies it to each level of its limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    BraidshadowError, CandidateCapExceeded, InternalInconsistencyError, NotContainedError
)
from .subgroups import NfiSubgroup, nfi_contains, nfi_equal, nfi_intersect, object_key
from .shadows import DEFAULT_CANDIDATE_CAP, GtShadow, enumerate_shadows, shadow_source


@dataclass
class ComponentReport:
    """A connected component: objects, all morphisms, and its intersection.

    ``morphisms[(i, j)]`` lists the shadows with source ``objects[i]`` and
    target ``objects[j]``.  Object indices follow discovery order (the
    starting object is index 0).
    """

    objects: list[NfiSubgroup]
    morphisms: dict[tuple[int, int], list[GtShadow]]
    isolated: bool
    diamond: NfiSubgroup


def connected_component(
    N: NfiSubgroup, max_candidates: int = DEFAULT_CANDIDATE_CAP, threads: int = 1
) -> ComponentReport:
    """Breadth-first closure of {N} under "is the source of a shadow of".

    Every morphism is invertible, so following sources alone reaches the
    whole component.  A source is compared with the known objects by kernel
    equality (|B3/N| first); only a new object's quotient data is read, to
    check that it agrees with N's on (index_pb3, index_f2, n_ord).
    """
    objects = [N]
    first = N.data
    morphisms: dict[tuple[int, int], list[GtShadow]] = {}

    def find_or_add(candidate: NfiSubgroup) -> int:
        for i, known in enumerate(objects):
            if nfi_equal(candidate, known):
                return i
        d = candidate.data
        if (d.index_pb3, d.index_f2, d.n_ord) != (
            first.index_pb3,
            first.index_f2,
            first.n_ord,
        ):
            raise InternalInconsistencyError(
                f"component object {candidate.label} disagrees with "
                f"{N.label} on (index_pb3, index_f2, n_ord)"
            )
        objects.append(candidate)
        return len(objects) - 1

    cursor = 0
    while cursor < len(objects):
        target = objects[cursor]
        for s in enumerate_shadows(target, max_candidates):
            src_idx = find_or_add(shadow_source(s))
            morphisms.setdefault((src_idx, cursor), []).append(s)
        cursor += 1

    running = objects[0]
    for obj in objects[1:]:
        if nfi_contains(running, obj):
            continue
        running = nfi_intersect([running, obj])
    for obj in objects:
        if not nfi_contains(running, obj):
            raise InternalInconsistencyError(
                "component intersection is not below every object"
            )
    return ComponentReport(
        objects=objects,
        morphisms=morphisms,
        isolated=len(objects) == 1,
        diamond=running,
    )


def is_isolated(N: NfiSubgroup, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> bool:
    """True iff every shadow with target N is settled (source = target).

    ``shadow_source`` returns the target object itself exactly when a
    shadow is settled, and every shadow enumerated here has target N, so
    an identity test is exact.
    """
    return all(shadow_source(s) is N for s in enumerate_shadows(N, max_candidates))


def diamond(
    N: NfiSubgroup, max_candidates: int = DEFAULT_CANDIDATE_CAP, threads: int = 1
) -> NfiSubgroup:
    """Intersection of all objects in N's component; always isolated.

    :func:`connected_component` has checked that the intersection lies
    below every object, N among them; its isolation is rechecked here.
    """
    result = connected_component(N, max_candidates).diamond
    if not is_isolated(result, max_candidates):
        raise InternalInconsistencyError("diamond failed the isolation recheck")
    return result


def _reduction(N: NfiSubgroup, H: NfiSubgroup) -> list[int] | None:
    """B3/N -> B3/H, sigma_i -> sigma_i, on indices: one ``hom_into``, None
    unless N <= H.  H_ord divides N_ord whenever N <= H; that is rechecked."""
    a = N.b3_quotient.hom_into(H.b3_quotient)
    if a is not None and N.data.n_ord % H.data.n_ord != 0:
        raise InternalInconsistencyError(f"{H.label}_ord does not divide {N.label}_ord")
    return a


def _reduce(s: GtShadow, H: NfiSubgroup, a: list[int]) -> GtShadow:
    """s reduced along ``a = _reduction(s.target, H)``.  f's image lies in
    B3/N, so its image under ``a`` is f's image in B3/H; no word is read."""
    f_elt = H.b3_quotient.elements_in_order[a[s.target.b3_quotient.index_of(s.f_elt)]]
    return GtShadow(H, s.m % H.data.n_ord, s.f_word, f_elt)


def reduce_shadow(s: GtShadow, H: NfiSubgroup) -> GtShadow:
    """Reinterpret a shadow with target N as one with target H, for N <= H.

    The morphism data only shrinks: m mod H_ord and the f-coset in H's
    smaller quotient; the word is kept.
    """
    a = _reduction(s.target, H)
    if a is None:
        raise NotContainedError(
            f"cannot reduce: {s.target.label} is not contained in {H.label}"
        )
    return _reduce(s, H, a)


def survives(
    s: GtShadow,
    N: NfiSubgroup,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    threads: int = 1,
) -> bool:
    """Does s (target H) lie in the image of GT(N) under reduction to H?

    Brute force: reduce every shadow of N along one walk and look for s.
    """
    a = _reduction(N, s.target)
    if a is None:
        raise NotContainedError(
            f"{N.label} is not contained in {s.target.label}; "
            "survival is only defined downward"
        )
    return any(_reduce(t, s.target, a) == s for t in enumerate_shadows(N, max_candidates))


@dataclass
class Verdict:
    """Outcome of the finite-depth genuineness check.

    kind "fake" carries a witness subgroup and the full reduce-image of its
    shadow set (which the tested shadow is absent from); that pair is an
    independently checkable certificate.  kind "not_fake_to_depth" only
    says the listed subgroups failed to expose the shadow.
    """

    kind: str
    checked: list[NfiSubgroup] = field(default_factory=list)
    witness: NfiSubgroup | None = None
    reduce_image: list[GtShadow] | None = None


def genuine_to_depth(
    s: GtShadow,
    catalog: list[NfiSubgroup],
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    threads: int = 1,
) -> Verdict:
    """Search the catalog for a certificate that s is fake.

    Only entries below s.target are applicable; one walk per entry decides
    that and reduces all its shadows.  A genuine shadow survives into every
    finer subgroup, so failing to survive into one proves fakeness;
    surviving everywhere proves nothing beyond the listed depth, and the
    verdict says so.
    """
    checked: list[NfiSubgroup] = []
    for entry in catalog:
        a = _reduction(entry, s.target)
        if a is None:
            continue
        image = [_reduce(t, s.target, a) for t in enumerate_shadows(entry, max_candidates)]
        if s not in image:
            return Verdict(
                kind="fake", checked=checked + [entry], witness=entry,
                reduce_image=image,
            )
        checked.append(entry)
    return Verdict(kind="not_fake_to_depth", checked=checked)


@dataclass
class MainLineDiagram:
    """Reduction diagram over a finite poset of isolated objects.

    ``edges[(i, j)]`` is the reduction table GT(objects[i]) ->
    GT(objects[j]) for each comparable pair objects[i] <= objects[j]; on
    isolated objects each GT is a group and each table a homomorphism.
    """

    poset_objects: list[NfiSubgroup]
    groups: dict[int, list[GtShadow]]
    edges: dict[tuple[int, int], dict[GtShadow, GtShadow]]


def main_line_limit(
    catalog: list[NfiSubgroup],
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    threads: int = 1,
) -> tuple[MainLineDiagram, list[tuple[GtShadow, ...]]]:
    """Build the reduction diagram on the catalog and compute its limit.

    The limit is the set of tuples (one shadow per object) compatible with
    every edge table (one walk each); under componentwise composition it is
    a group.  It is filtered one object at a time, in :func:`object_key`
    order: each kept prefix is extended by every shadow of the next object
    that agrees with its edge tables to the earlier ones, so tuples come out
    in lexicographic order.  A level is built only if its grid (kept
    prefixes times shadows) is within ``max_candidates``; otherwise
    CandidateCapExceeded is raised.
    """
    for entry in catalog:
        if not is_isolated(entry, max_candidates):
            raise BraidshadowError(
                f"main line requires isolated objects; {entry.label} is not"
            )
    objects = sorted(catalog, key=object_key)
    groups = {i: enumerate_shadows(obj, max_candidates) for i, obj in enumerate(objects)}
    edges: dict[tuple[int, int], dict[GtShadow, GtShadow]] = {}
    for i, finer in enumerate(objects):
        for j, coarser in enumerate(objects):
            a = None if i == j else _reduction(finer, coarser)
            if a is not None:
                edges[(i, j)] = {s: _reduce(s, coarser, a) for s in groups[i]}
    diagram = MainLineDiagram(poset_objects=objects, groups=groups, edges=edges)

    limit: list[tuple[GtShadow, ...]] = [()]
    for k, group in groups.items():
        grid = len(limit) * len(group)
        if grid > max_candidates:
            raise CandidateCapExceeded(max_candidates, grid)
        down = [(j, edges[(k, j)]) for j in range(k) if (k, j) in edges]
        up = [(j, edges[(j, k)]) for j in range(k) if (j, k) in edges]
        limit = [
            (*t, c) for t in limit for c in group
            if all(table[c] == t[j] for j, table in down)
            and all(table[t[j]] == c for j, table in up)
        ]
    return diagram, limit
