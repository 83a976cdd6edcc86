"""Finite-index normal subgroups N of B3 with N <= PB3.

A subgroup is always stored as the kernel of an explicit homomorphism
B3 -> (finite permutation group), given by the images of sigma_1 and
sigma_2, and B3/N is enumerated once, when the subgroup is built.  N <= H
iff B3/N maps onto B3/H generator by generator, checked on the two
multiplication tables; N <= PB3 is the same check against S3, made once
when the subgroup is built, and then |PB3/N| = |B3/N| / 6, so PB3/N is
never enumerated.  The realization is non-canonical: the same kernel may
appear with different degrees.  ``content_id`` hashes the realization,
not the kernel.
"""

from __future__ import annotations

import itertools
import json
import hashlib
import math
from dataclasses import dataclass

from .errors import KernelNotInPb3Error
from .perms import (
    DEFAULT_GROUP_SIZE_CAP,
    GeneratedGroup,
    GenHom,
    Permutation,
    block_sum,
    commutator_subgroup,
    generate_group,
)
from .words import COSET_TABLE, TAG_B3, TAG_F2, TRANSVERSAL_LABELS, FreeWord

# Six and no more: the search holds all n! permutations of each degree, and
# the `catalog` command enumerates the shadows of every entry it finds.
DEFAULT_CATALOG_DEGREE_LIMIT = 6


def rho() -> GenHom:
    """The projection B3 -> S3: sigma_1 -> (0 1), sigma_2 -> (1 2)."""
    return GenHom(TAG_B3, (Permutation((1, 0, 2)), Permutation((0, 2, 1))))


_S3 = generate_group(rho().images, tag=TAG_B3)  # B3/PB3


def content_id(images: tuple[Permutation, Permutation]) -> str:
    payload = json.dumps([list(p.images) for p in images])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class QuotientData:
    """Everything derived from one subgroup's quotient B3/N.

    ``f2_quotient`` is generated by the images of x = sigma_1^2 and
    y = sigma_2^2 with words over {x, y}; ``f2_commutator`` is its commutator
    subgroup with words that are literal products of conjugated commutators
    (still over {x, y}).  PB3/N is not enumerated: B3/N maps onto
    S3 = B3/PB3, so ``index_pb3`` = |PB3/N| = |B3/N| / 6.
    """

    b3_quotient: GeneratedGroup
    f2_quotient: GeneratedGroup
    f2_commutator: GeneratedGroup
    n_ord: int
    index_pb3: int
    index_f2: int
    x_image: Permutation
    y_image: Permutation
    c_image: Permutation
    delta_image: Permutation


class NfiSubgroup:
    """An element of the poset of finite-index normal subgroups inside PB3.

    Equality and hashing compare the stored *realization* (degree and
    generator images); use :func:`nfi_equal` for kernel equality.  State
    derived from N (its quotient data and its shadow list) lives on the
    object and is dropped with it; B3/N itself is enumerated on construction,
    and KernelNotInPb3Error is raised unless it maps onto S3 = B3/PB3.
    """

    def __init__(self, hom: GenHom, label: str, max_group_size: int = DEFAULT_GROUP_SIZE_CAP):
        self.hom = hom
        self.label = label
        self.max_group_size = max_group_size
        self.content_id = content_id(hom.images)
        self.b3_quotient = generate_group(hom.images, tag=TAG_B3, max_size=max_group_size)
        if not self.b3_quotient.maps_onto(_S3):
            raise KernelNotInPb3Error(
                f"kernel of {label or 'homomorphism'} is not contained in PB3"
            )
        self._data: QuotientData | None = None
        self._shadows = None  # GT(N), memoized by shadows.enumerate_shadows

    @property
    def degree(self) -> int:
        return self.hom.degree

    @property
    def data(self) -> QuotientData:
        if self._data is None:
            self._data = _compute_quotient_data(self.b3_quotient, self.max_group_size)
        return self._data

    def f2_hom(self) -> GenHom:
        """The restriction to F2: images of x and y."""
        g1, g2 = self.hom.images
        return GenHom(TAG_F2, (g1 * g1, g2 * g2))

    def evaluate_f2(self, w: FreeWord) -> Permutation:
        """Image of an F2 word in the quotient F2/N_F2."""
        return self.data.f2_quotient.evaluate(w)

    def __repr__(self):
        return f"NfiSubgroup({self.label!r}, degree={self.degree})"

    def __eq__(self, other):
        return (
            isinstance(other, NfiSubgroup) and self.hom.images == other.hom.images
        )

    def __hash__(self):
        return hash(self.hom.images)


def _compute_quotient_data(b3_quotient: GeneratedGroup, max_size: int) -> QuotientData:
    g1, g2 = b3_quotient.generators
    xbar = g1 * g1
    ybar = g2 * g2
    delta = g1 * g2 * g1
    cbar = delta * delta
    f2_quotient = generate_group([xbar, ybar], tag=TAG_F2, max_size=max_size)
    return QuotientData(
        b3_quotient=b3_quotient,
        f2_quotient=f2_quotient,
        f2_commutator=commutator_subgroup(f2_quotient, max_size=max_size),
        n_ord=math.lcm(xbar.order(), ybar.order(), cbar.order()),
        index_pb3=b3_quotient.order // 6,
        index_f2=f2_quotient.order,
        x_image=xbar,
        y_image=ybar,
        c_image=cbar,
        delta_image=delta,
    )


def new_nfi(
    images: tuple[Permutation, Permutation],
    label: str = "",
    max_group_size: int = DEFAULT_GROUP_SIZE_CAP,
) -> NfiSubgroup:
    """Validate generator images and wrap them as a subgroup-by-kernel.

    Raises BraidRelationError if the braid relation fails and
    KernelNotInPb3Error if the kernel is not contained in ker(rho) = PB3,
    that is, if B3/N does not map onto S3 by sigma_i -> rho(sigma_i).
    """
    N = NfiSubgroup(GenHom(TAG_B3, tuple(images)), label, max_group_size=max_group_size)
    if not label:
        N.label = f"N-{N.content_id[:8]}"
    return N


def object_key(N: NfiSubgroup) -> tuple[int, str]:
    """The fixed order of subgroups: (|B3/N|, content_id).  |B3/N| is
    6 |PB3/N|, so this is also the order by (index_pb3, content_id)."""
    return (N.b3_quotient.order, N.content_id)


def pb3_subgroup() -> NfiSubgroup:
    """The top object N = PB3, realized as ker(rho)."""
    return new_nfi(rho().images, label="pb3")


def nfi_contains(N: NfiSubgroup, H: NfiSubgroup) -> bool:
    """True iff N <= H as subgroups of B3: B3/N maps onto B3/H."""
    return N == H or N.b3_quotient.maps_onto(H.b3_quotient)


def nfi_equal(N: NfiSubgroup, K: NfiSubgroup) -> bool:
    """True iff N and K are the same kernel: N <= K and |B3/N| = |B3/K|."""
    return N.b3_quotient.order == K.b3_quotient.order and nfi_contains(N, K)


def nfi_intersect(
    subgroups: list[NfiSubgroup],
    label: str = "",
    max_group_size: int | None = None,
) -> NfiSubgroup:
    """Intersection of kernels: the block-diagonal homomorphism."""
    if not subgroups:
        raise ValueError("nfi_intersect needs at least one subgroup")
    cap = max_group_size or max(s.max_group_size for s in subgroups)
    g1 = block_sum(*(s.hom.images[0] for s in subgroups))
    g2 = block_sum(*(s.hom.images[1] for s in subgroups))
    if not label:
        label = "(" + " & ".join(s.label for s in subgroups) + ")"
    return new_nfi((g1, g2), label=label, max_group_size=cap)


# ---------------------------------------------------------------------------
# the subgroup attached to a finite quotient of F2

def from_f2_quotient(
    psi_images: tuple[Permutation, Permutation],
    label: str = "",
    max_group_size: int = DEFAULT_GROUP_SIZE_CAP,
) -> NfiSubgroup:
    """The normal core of ker(psi-tilde), for psi: F2 -> finite group.

    psi extends to psi-tilde: PB3 -> im(psi) by x12 -> psi(x), x23 -> psi(y),
    c -> 1.  B3 then acts on the cosets of ker(psi-tilde); cosets are pairs
    (element of im(psi), transversal label), and sigma_i moves a pair by the
    positive row of :data:`~braidshadow.words.COSET_TABLE` for its label:
    the row's F2 word multiplies the element on the right, its label
    replaces the pair's, and its c delta is ignored, since c dies.  The
    kernel of that action is the normal core, a finite-index normal
    subgroup of B3 inside PB3 whose F2-part is contained in ker(psi).
    """
    psi = GenHom(TAG_F2, tuple(psi_images))
    image_group = generate_group(list(psi.images), tag=TAG_F2, max_size=max_group_size)
    n = image_group.order
    n_labels = len(TRANSVERSAL_LABELS)
    label_pos = {lab: k for k, lab in enumerate(TRANSVERSAL_LABELS)}

    def action(i: int) -> Permutation:
        images = [0] * (n * n_labels)
        for s_idx, s_label in enumerate(TRANSVERSAL_LABELS):
            f2, _dc, new_label = COSET_TABLE[s_label, (i, 1)]
            move = image_group.evaluate(FreeWord(TAG_F2, f2))
            for g_idx, g in enumerate(image_group.elements_in_order):
                point = g_idx * n_labels + s_idx
                images[point] = (
                    image_group.index_of(g * move) * n_labels + label_pos[new_label]
                )
        return Permutation(tuple(images))

    if not label:
        label = f"core-{content_id(tuple(psi.images))[:8]}"
    return new_nfi((action(0), action(1)), label=label, max_group_size=max_group_size)


# ---------------------------------------------------------------------------
# catalog search

def _braid_pairs(degree: int):
    """The braid pairs (p, q), p q p = q p q, whose p is least of its type.

    p q p = q p q forces q = (pq) p (pq)^-1, so q is tried only in p's
    cycle-type bucket, and p is the bucket's first member: the least
    permutation of that type, as ``itertools.permutations`` is
    lexicographic.  Buckets go in the order of their first members.  The
    relation is tested on the image tuples (p q p sends i to p[q[p[i]]]),
    so the scan builds no product permutations.

    ``catalog_search`` builds one candidate per relabelling class
    (:func:`_pair_class`), and restricting p loses no class and moves no
    class's first pair, against a scan of every same-type pair ordered by
    p.  Every pair is a relabelling of one whose p is least of its type,
    and relabelling keeps the key.  A key first appears at the degree that
    sums its classes' degrees, where each class occurs once, so all of its
    pairs there share one cycle type, whose least p that scan meets first.
    And the yielded pairs are a subsequence of that scan's.
    """
    by_type: dict[tuple[int, ...], list[Permutation]] = {}
    for t in itertools.permutations(range(degree)):
        p = Permutation(t)
        by_type.setdefault(tuple(sorted(p.cycle_lengths())), []).append(p)
    points = range(degree)
    for bucket in by_type.values():
        p = bucket[0]
        a = p.images
        for q in bucket:
            b = q.images
            if all(a[b[a[i]]] == b[a[b[i]]] for i in points):
                yield p, q


def _relabel(p: tuple[int, ...], q: tuple[int, ...], start: int):
    """BFS from ``start`` along p then q: (visit order, relabelled pair)."""
    label = {start: 0}
    order = [start]
    for i in order:
        for j in (p[i], q[i]):
            if j not in label:
                label[j] = len(order)
                order.append(j)
    form = (tuple(label[p[i]] for i in order), tuple(label[q[i]] for i in order))
    return order, form


def _pair_class(p: Permutation, q: Permutation) -> tuple:
    """A key shared exactly by the braid pairs with the same orbit classes.

    Each orbit of <p, q> contributes the least BFS relabelling of (p, q)
    restricted to it, over all start points in the orbit; the key is the
    sorted tuple of the distinct orbit forms.  Pairs related by a
    simultaneous relabelling get the same key, and so do pairs whose orbits
    fall into the same classes with other multiplicities.
    """
    p, q = p.images, q.images
    seen = [False] * len(p)
    forms = set()
    for root in range(len(p)):
        if seen[root]:
            continue
        orbit, _ = _relabel(p, q, root)
        for i in orbit:
            seen[i] = True
        forms.add(min(_relabel(p, q, start)[1] for start in orbit))
    return tuple(sorted(forms))


def catalog_search(
    max_degree: int,
    degree_limit: int = DEFAULT_CATALOG_DEGREE_LIMIT,
    max_group_size: int = DEFAULT_GROUP_SIZE_CAP,
    threads: int = 1,
) -> list[NfiSubgroup]:
    """Distinct kernels from braid-relation pairs of degree <= max_degree.

    Every pair is adjoined to rho on three extra points, which forces the
    kernel into PB3 by construction.  The scan is serial (``threads`` is
    accepted for compatibility and ignored) and deduplicates as it goes.

    Many pairs of :func:`_braid_pairs` still share a :func:`_pair_class`
    key, and a pair whose key was already seen is skipped before any
    candidate is built.  That is exact: relabelling the pair conjugates the
    homomorphism, and the kernel of an intransitive pair is the
    intersection of its orbits' kernels, so it depends only on the set of
    orbit classes.  The candidates are the first pair of each class in a
    scan of every pair, in that order, and a skipped pair's quotient is an
    earlier candidate's, so ``max_group_size`` trips on the same inputs.

    Each remaining candidate is compared with the kept ones by
    :func:`nfi_equal`, whose |B3/N| comparison is the cheap first filter;
    only B3/N is enumerated, no quotient data is built, and only kept
    candidates stay alive.  Output is sorted by :func:`object_key` and
    relabeled cat00, cat01, ... so repeated runs agree byte for byte.
    """
    if max_degree < 1 or max_degree > degree_limit:
        raise ValueError(
            f"max_degree must be in 1..{degree_limit}, got {max_degree}"
        )
    r1, r2 = rho().images
    kept: list[NfiSubgroup] = []
    seen: set[tuple] = set()
    for degree in range(1, max_degree + 1):
        for p, q in _braid_pairs(degree):
            key = _pair_class(p, q)
            if key in seen:
                continue
            seen.add(key)
            cand = new_nfi(
                (block_sum(p, r1), block_sum(q, r2)), max_group_size=max_group_size
            )
            if not any(nfi_equal(cand, existing) for existing in kept):
                kept.append(cand)

    kept.sort(key=object_key)
    for i, entry in enumerate(kept):
        entry.label = f"cat{i:02d}"
    return kept
