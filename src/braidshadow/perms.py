"""Finite permutation group machinery built from scratch.

Desk-scale philosophy: every group that shows up (quotients B3/N and
F2/N_F2, and the latter's commutator subgroup) is small enough to enumerate
outright, so there are no stabilizer chains, just one breadth-first closure.
It records a Schreier tree and the right-multiplication table; a group
spells words only on demand.  Every map out of an enumerated group is
:meth:`GeneratedGroup.hom_into`: generator images spelled down the tree and
checked on the table, integers only.  It decides whether generator images
define an automorphism, whether a group maps onto another generator by
generator (for two quotients of B3: whether one kernel lies in the other),
and tabulates such maps.  Whether given elements generate a group is a BFS
on the same table.  The paired-image closure of :func:`kernel_contained`
is kept as the tests' reference for kernel questions.

Composition convention (used everywhere, including word evaluation): the
product ``p * q`` means "apply p first, then q".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BraidRelationError,
    DegreeMismatchError,
    DomainTagMismatchError,
    GroupSizeCapExceeded,
)
from .words import FreeWord, empty_word

DEFAULT_GROUP_SIZE_CAP = 100_000


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection of 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise DegreeMismatchError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        o = other.images
        return Permutation(tuple(o[i] for i in self.images))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation(tuple(out))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_lengths(self) -> list[int]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            n, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = self.images[i]
                n += 1
            out.append(n)
        return out

    def order(self) -> int:
        return math.lcm(*self.cycle_lengths())


def block_sum(*perms: Permutation) -> Permutation:
    """Act on the disjoint union of the domains, block by block."""
    images: list[int] = []
    offset = 0
    for p in perms:
        images.extend(i + offset for i in p.images)
        offset += p.degree
    return Permutation(tuple(images))


class GeneratedGroup:
    """A fully enumerated permutation group, words spelled on demand.

    ``elements_in_order`` lists elements in BFS discovery order: words sorted
    by length, ties broken by generator index then left to right.  The BFS
    records a Schreier tree (element i was first reached from element
    ``parent[i]`` by generator ``via[i]``), and ``word_of`` spells words from
    it on demand, over ``word_basis`` (== the generators, except for
    commutator subgroups, whose words are spelled over the parent group's
    alphabet so that they are literal commutator-subgroup words).

    ``right[g][i]`` is the index of ``elements_in_order[i] * generators[g]``:
    the group's right-multiplication table.  :meth:`_walk` is the one index
    pass down the tree, and :meth:`hom_into`, built on it, the one map
    primitive: :meth:`is_automorphism`, :meth:`maps_onto` and every map the
    other modules read off a quotient go through it.
    """

    def __init__(
        self,
        generators: Sequence[Permutation],
        tag: str,
        elements_in_order: list[Permutation],
        index: dict[Permutation, int],
        parent: list[int],
        via: list[int],
        right: list[list[int]],
        seed_words: Sequence[FreeWord],
        word_basis: Sequence[Permutation] | None = None,
    ):
        self.generators = tuple(generators)
        self.tag = tag
        self.elements_in_order = elements_in_order
        self.word_basis = tuple(word_basis) if word_basis is not None else self.generators
        self.order = len(elements_in_order)
        self._index = index
        self._parent = parent
        self._via = via
        self.right = right
        self._seed_words = tuple(seed_words)
        self._words = [empty_word(tag)]
        self._inverse: list[int] | None = None

    @property
    def degree(self) -> int:
        return self.generators[0].degree

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: Permutation) -> bool:
        return p in self._index

    def index_of(self, p: Permutation) -> int:
        return self._index[p]

    def word_of(self, p: Permutation) -> FreeWord:
        """Parent's word times the seed word; spelled in BFS order and kept."""
        i = self._index[p]
        words = self._words
        for j in range(len(words), i + 1):
            words.append(words[self._parent[j]] * self._seed_words[self._via[j]])
        return words[i]

    def evaluate(self, w: FreeWord) -> Permutation:
        return evaluate_word(w, self.word_basis)

    def _walk(self, tables: Sequence[Sequence[int]], start: int = 0) -> list[int]:
        """Indices spelled down the Schreier tree: a[0] = start and
        a[j] = tables[via[j]][a[parent[j]]].  Element j is its parent times
        generator ``via[j]``, so with ``self.right`` as the tables this is
        left multiplication by element ``start``."""
        parent, via = self._parent, self._via
        a = [start]
        for j in range(1, self.order):
            a.append(tables[via[j]][a[parent[j]]])
        return a

    def _inverse_table(self) -> list[int]:
        """The index of each element's inverse; built once, in BFS order.

        Element j is its parent times generator ``via[j]``, so its inverse
        is that generator's inverse times the parent's inverse: a walk over
        the left tables of the generator inverses.
        """
        if self._inverse is None:
            left = [self._walk(self.right, self._index[g.inverse()]) for g in self.generators]
            self._inverse = self._walk(left)
        return self._inverse

    def _right_table(self, p: Permutation) -> list[int]:
        """Right multiplication by element p, on indices: x p for each x.

        Computed as x p = (p^-1 x^-1)^-1, from a left table and the inverse
        table, so no product is formed.
        """
        inv = self._inverse_table()
        left = self._walk(self.right, inv[self._index[p]])
        return [inv[left[k]] for k in inv]

    def hom_into(
        self, other: "GeneratedGroup", images: Sequence[Permutation] | None = None
    ) -> list[int] | None:
        """The homomorphism generator i -> images[i] into ``other``, or None.

        The result lists, for each element in BFS order, the index of its
        image in ``other``.  Without ``images``, generator i goes to
        ``other.generators[i]`` and right multiplication is read straight
        from ``other.right``; otherwise from ``other``'s right tables of the
        images.  The map is spelled with :meth:`_walk` and checked on every
        edge of ``self.right``; None if an edge disagrees (no homomorphism
        extends the images) or an image lies outside ``other``.  Integer
        work only; degrees may differ.
        """
        n = len(self.generators)
        count = len(other.generators) if images is None else len(images)
        if count != n:
            raise ValueError(f"need {n} generator images, got {count}")
        if images is None:
            tables = other.right
        elif any(p not in other for p in images):
            return None
        else:
            tables = [other._right_table(p) for p in images]
        a = self._walk(tables)
        for table, t in zip(self.right, tables):
            if any(a[j] != t[a[i]] for i, j in enumerate(table)):
                return None
        return a

    def is_automorphism(self, images: Sequence[Permutation]) -> bool:
        """Does generator i -> images[i] extend to an injective endomorphism?

        :meth:`hom_into` the group itself, injective iff the map takes
        ``order`` distinct values.  An image outside the group gives False.
        """
        a = self.hom_into(self, images)
        return a is not None and len(set(a)) == self.order

    def maps_onto(self, other: "GeneratedGroup") -> bool:
        """Does generator i -> other.generators[i] extend to a homomorphism?

        Such a map is onto.  For two quotients B3/N and B3/H by the same
        generators, it exists exactly when N <= H.
        """
        return self.hom_into(other) is not None


def evaluate_word(w: FreeWord, images: Sequence[Permutation]) -> Permutation:
    """Evaluate a word over the given generator images (left to right)."""
    inverses = [p.inverse() for p in images]
    out = Permutation.identity(images[0].degree)
    for g, s in w.letters:
        out = out * (images[g] if s > 0 else inverses[g])
    return out


def generate_group(
    gens: Sequence[Permutation],
    tag: str = "GEN",
    max_size: int = DEFAULT_GROUP_SIZE_CAP,
    word_basis: Sequence[Permutation] | None = None,
    seed_words: Sequence[FreeWord] | None = None,
) -> GeneratedGroup:
    """Breadth-first closure of the generators, recording a Schreier tree
    and the right-multiplication table (every product is looked up anyway).

    Positive products suffice to close a finite group, so words use positive
    letters only (unless explicit ``seed_words`` carry inverses).  The BFS
    order makes the element list and the words reproducible across runs.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DegreeMismatchError("generators must share a degree")
    if seed_words is None:
        seed_words = [FreeWord(tag, ((i, 1),)) for i in range(len(gens))]
    identity = Permutation.identity(degree)
    index = {identity: 0}
    elements = [identity]
    parent, via = [0], [0]
    right: list[list[int]] = [[] for _ in gens]
    cursor = 0
    while cursor < len(elements):
        current = elements[cursor]
        for g, gen in enumerate(gens):
            product = current * gen
            j = index.get(product)
            if j is None:
                j = index[product] = len(elements)
                elements.append(product)
                parent.append(cursor)
                via.append(g)
                if len(elements) > max_size:
                    raise GroupSizeCapExceeded(max_size, len(elements))
            right[g].append(j)
        cursor += 1
    return GeneratedGroup(
        gens, tag, elements, index, parent, via, right, seed_words, word_basis
    )


def closure_order(gens: Sequence[Permutation], max_size: int = DEFAULT_GROUP_SIZE_CAP) -> int:
    """|<gens>|, by the same closure as :func:`generate_group`."""
    return generate_group(gens, max_size=max_size).order


def commutator_subgroup(
    G: GeneratedGroup, max_size: int = DEFAULT_GROUP_SIZE_CAP
) -> GeneratedGroup:
    """[G,G] as the normal closure of the generator commutators.

    Seed elements are g [a_i, a_j]^(+-1) g^-1 for g over all of G, so every
    word representative is a literal product of conjugated commutators; in
    particular all exponent sums vanish, which is what "lies in [F2,F2]"
    means when G is a two-generator quotient of F2.
    """
    letters = [(a, FreeWord(G.tag, ((i, 1),))) for i, a in enumerate(G.generators)]
    comms: list[tuple[Permutation, FreeWord]] = []
    for (a, aw), (b, bw) in itertools.combinations(letters, 2):
        comm = a * b * a.inverse() * b.inverse()
        comm_word = aw * bw * aw.inv() * bw.inv()
        comms += [(comm, comm_word), (comm.inverse(), comm_word.inv())]
    seeds: list[Permutation] = []
    seed_words: list[FreeWord] = []
    seen: set[Permutation] = set()
    for g in G.elements_in_order:
        g_inv = g.inverse()
        for perm, w in comms:
            conj = g * perm * g_inv
            if conj.is_identity() or conj in seen:
                continue
            seen.add(conj)
            seeds.append(conj)
            g_word = G.word_of(g)
            seed_words.append(g_word * w * g_word.inv())
    if not seeds:
        seeds, seed_words = [G.identity], [empty_word(G.tag)]
    return generate_group(
        seeds,
        tag=G.tag,
        max_size=max_size,
        word_basis=G.word_basis,
        seed_words=seed_words,
    )


@dataclass(frozen=True)
class GenHom:
    """A homomorphism from B3 or F2 given by generator images.

    domain_tag "B3": images of (sigma_1, sigma_2), which must satisfy the
    braid relation.  "F2": images of (x, y), no relation.
    """

    domain_tag: str
    images: tuple[Permutation, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        degree = self.images[0].degree
        if any(p.degree != degree for p in self.images):
            raise DegreeMismatchError("homomorphism images must share a degree")
        if self.domain_tag == "B3":
            if len(self.images) != 2:
                raise ValueError("B3 homomorphism needs images of sigma_1, sigma_2")
            g1, g2 = self.images
            if g1 * g2 * g1 != g2 * g1 * g2:
                raise BraidRelationError(
                    "braid relation violated: g1 g2 g1 != g2 g1 g2"
                )
        elif self.domain_tag == "F2":
            if len(self.images) != 2:
                raise ValueError("F2 homomorphism needs images of x, y")
        else:
            raise ValueError(f"unknown domain tag {self.domain_tag!r}")

    @property
    def degree(self) -> int:
        return self.images[0].degree

    def evaluate(self, w: FreeWord) -> Permutation:
        return evaluate_word(w, self.images)


def kernel_contained(
    hom1: GenHom, hom2: GenHom, max_size: int = DEFAULT_GROUP_SIZE_CAP
) -> bool:
    """True iff ker(hom1) <= ker(hom2), by the paired-image closure.

    The projection im(hom1 x hom2) -> im(hom1) is always onto, and it is
    injective exactly when every word killed by hom1 is killed by hom2.  So
    the kernels nest iff the paired image is no bigger than im(hom1), and
    the paired closure runs with |im(hom1)| as its cap.  Only im(hom1)
    itself must fit in ``max_size``.  The tests' reference for
    :meth:`GeneratedGroup.maps_onto`; the library does not call it.
    """
    if hom1.domain_tag != hom2.domain_tag:
        raise DomainTagMismatchError(
            f"domain mismatch: {hom1.domain_tag} vs {hom2.domain_tag}"
        )
    if hom1.images == hom2.images:
        return True
    order1 = closure_order(hom1.images, max_size=max_size)
    paired = [block_sum(p, q) for p, q in zip(hom1.images, hom2.images)]
    try:
        closure_order(paired, max_size=order1)
    except GroupSizeCapExceeded:
        return False
    return True


def kernels_equal(
    hom1: GenHom, hom2: GenHom, max_size: int = DEFAULT_GROUP_SIZE_CAP
) -> bool:
    """ker(hom1) == ker(hom2), as two containment tests.

    Each test is capped by its own first image, and the second runs only
    when ker(hom1) <= ker(hom2), so |im(hom2)| <= |im(hom1)| fits as well.
    """
    return kernel_contained(hom1, hom2, max_size) and kernel_contained(hom2, hom1, max_size)


def is_generating_set(G: GeneratedGroup, elems: Iterable[Permutation]) -> bool:
    """True iff the given elements of G generate all of it.

    A BFS over G's indices from the identity, one step being right
    multiplication by a given element, read from a table built on G's own
    multiplication table (no permutation product).  It stops as soon as all
    ``G.order`` elements are reached.
    """
    elems = list(elems)
    for p in elems:
        if p not in G:
            raise ValueError(f"element {p.images} is not in the group")
    tables = [G._right_table(p) for p in elems]
    seen = bytearray(G.order)
    seen[0] = 1
    reached = [0]
    for i in reached:
        for table in tables:
            j = table[i]
            if not seen[j]:
                seen[j] = 1
                reached.append(j)
                if len(reached) == G.order:
                    return True
    return len(reached) == G.order
