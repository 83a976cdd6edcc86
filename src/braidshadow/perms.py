"""Finite permutation group machinery built from scratch.

Desk-scale philosophy: every group that shows up (quotients B3/N and
F2/N_F2, and the latter's commutator subgroup) is small enough to enumerate
outright, so there are no stabilizer chains, just one breadth-first closure.
It records a Schreier tree and, unless the group's order is given in
advance, the right-multiplication table; a group spells words only on
demand.  Every map out of an enumerated group is
:meth:`GeneratedGroup.hom_into`: generator images spelled down the tree and
checked on the table, integers only.  It decides whether generator images
define a homomorphism (and, by counting its values, an automorphism),
whether a group maps onto another generator by generator (for two quotients
of B3: whether one kernel lies in the other), and tabulates such maps.
One BFS over indices, :func:`_reach`, counts what given moves on those
tables reach from the identity: it decides whether given elements generate
the group and gives the commutator subgroup's order, whose seeds are read
off the same tables.  The paired-image closure of :func:`kernel_contained`
is kept as the tests' reference for kernel questions.

Composition convention (used everywhere, including word evaluation): the
product ``p * q`` means "apply p first, then q".

Only the public constructor ``Permutation(images)`` checks that the images
form a bijection; that is where outside data comes in.  Products, inverses
and powers are built unchecked, since a product of bijections is a
bijection.  The closure works on byte strings (one ``bytes.translate`` per
product) up to degree 256 and on image tuples above it, and a group wraps
an element as a :class:`Permutation` only when it is read.
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
    InternalInconsistencyError,
)
from .words import FreeWord, empty_word

DEFAULT_GROUP_SIZE_CAP = 100_000


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as the tuple of images.

    Only the public constructor validates: it is where outside data (a
    file, a fixture, a test) comes in.  Products, inverses and powers are
    built with :meth:`_trusted`, unchecked, because a product of
    bijections is a bijection.  Equality and hashing are those of
    ``images``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a bijection of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a bijection, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __hash__(self):
        return hash(self.images)

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation._trusted(tuple(range(degree)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise DegreeMismatchError(f"degree mismatch: {len(a)} vs {len(b)}")
        return Permutation._trusted(tuple(map(b.__getitem__, a)))

    def inverse(self) -> "Permutation":
        out = [0] * len(self.images)
        for i, j in enumerate(self.images):
            out[j] = i
        return Permutation._trusted(tuple(out))

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
    return Permutation._trusted(tuple(images))


class GeneratedGroup:
    """A fully enumerated permutation group, words spelled on demand.

    ``elements_in_order`` lists elements in BFS discovery order: words sorted
    by length, ties broken by generator index then left to right.  The group
    stores them unwrapped (as ``bytes`` up to degree 256, as image tuples
    above it) and keys its index by the same values; ``element(i)`` wraps
    element i alone, and ``elements_in_order`` wraps them all on its first
    read and keeps the list.

    The BFS records a Schreier tree (element i was first reached from element
    ``parent[i]`` by generator ``via[i]``), and ``word_of`` spells words from
    it on demand, over ``word_basis`` (== the generators, except for
    commutator subgroups, whose words are spelled over the parent group's
    alphabet so that they are literal commutator-subgroup words).
    That order depends on the marked group alone, so every realization of
    one kernel N gives B3/N, F2/N_F2 and its commutator subgroup the same
    indices, trees, tables and words (a shadow's E table relies on it).

    ``right[g][i]`` is the index of ``elements_in_order[i] * generators[g]``:
    the group's right-multiplication table.  :meth:`_walk` is the one index
    pass down the tree, and :meth:`hom_into`, built on it, the one map
    primitive: :meth:`maps_onto` and every map the other modules read off a
    quotient go through it.  A group enumerated to a known order (a
    commutator subgroup) has ``right = None``; every table method raises
    ValueError on it.
    """

    def __init__(
        self,
        generators: Sequence[Permutation],
        tag: str,
        found: list[bytes] | list[tuple[int, ...]],
        index: dict[bytes, int] | dict[tuple[int, ...], int],
        parent: list[int],
        via: list[int],
        right: list[list[int]] | None,
        seed_words: Sequence[FreeWord],
        word_basis: Sequence[Permutation] | None = None,
    ):
        self.generators = tuple(generators)
        self.tag = tag
        self.word_basis = tuple(word_basis) if word_basis is not None else self.generators
        self.order = len(found)
        self._found = found
        self._elements: list[Permutation] | None = None
        # the length of a byte key, or None when the keys are image tuples
        self._byte_len = len(found[0]) if isinstance(found[0], bytes) else None
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

    @property
    def elements_in_order(self) -> list[Permutation]:
        if self._elements is None:
            self._elements = list(map(Permutation._trusted, map(tuple, self._found)))
        return self._elements

    def element(self, i: int) -> Permutation:
        """Element i in BFS order, wrapped on its own."""
        return Permutation._trusted(tuple(self._found[i]))

    def _key(self, p: Permutation):
        # a permutation of another degree keeps its tuple, which is no key
        images = p.images
        return bytes(images) if len(images) == self._byte_len else images

    def __contains__(self, p: Permutation) -> bool:
        return self._key(p) in self._index

    def index_of(self, p: Permutation) -> int:
        return self._index[self._key(p)]

    def word_of(self, p: Permutation) -> FreeWord:
        return self._word_at(self._index[self._key(p)])

    def _word_at(self, i: int) -> FreeWord:
        """Parent's word times the seed word; spelled in BFS order and kept."""
        words = self._words
        for j in range(len(words), i + 1):
            words.append(words[self._parent[j]] * self._seed_words[self._via[j]])
        return words[i]

    def evaluate(self, w: FreeWord) -> Permutation:
        return evaluate_word(w, self.word_basis)

    def _table(self) -> list[list[int]]:
        """``self.right``, or ValueError for a group enumerated without it."""
        if self.right is None:
            raise ValueError(
                f"{self.tag} group of order {self.order} was enumerated without "
                "a multiplication table"
            )
        return self.right

    def _walk(self, tables: Sequence[Sequence[int]], start: int = 0) -> list[int]:
        """Indices spelled down the Schreier tree: a[0] = start and
        a[j] = tables[via[j]][a[parent[j]]].  Element j is its parent times
        generator ``via[j]``, so with ``self.right`` as the tables this is
        left multiplication by element ``start``."""
        self._table()
        parent, via = self._parent, self._via
        a = [start]
        append = a.append
        for j in range(1, self.order):
            append(tables[via[j]][a[parent[j]]])
        return a

    def _inverse_table(self) -> list[int]:
        """The index of each element's inverse; built once, in BFS order.

        Element j is its parent times generator ``via[j]``, so its inverse
        is that generator's inverse times the parent's inverse: a walk over
        the left tables of the generator inverses.
        """
        if self._inverse is None:
            right = self._table()
            left = [self._walk(right, self.index_of(g.inverse())) for g in self.generators]
            self._inverse = self._walk(left)
        return self._inverse

    def _right_table(self, p: Permutation) -> list[int]:
        """Right multiplication by element p, on indices: x p for each x.

        For a generator g this is ``right[g]`` itself, shared and not to be
        mutated (``right[g][0]`` is g's own index).  Any other element's is
        computed as x p = (p^-1 x^-1)^-1, from a left table and the inverse
        table, so no product is formed.
        """
        right = self._table()
        i = self.index_of(p)
        for row in right:
            if row[0] == i:
                return row
        inv = self._inverse_table()
        left = self._walk(right, inv[i])
        return list(map(inv.__getitem__, map(left.__getitem__, inv)))

    def hom_into(
        self,
        other: "GeneratedGroup",
        images: Sequence[Permutation | list[int]] | None = None,
    ) -> list[int] | None:
        """The homomorphism generator i -> images[i] into ``other``, or None.

        The result lists, for each element in BFS order, the index of its
        image in ``other``.  Without ``images``, generator i goes to
        ``other.generators[i]`` and right multiplication is read straight
        from ``other.right``; otherwise from ``other``'s right tables of the
        images.  An image may be given as that table already (a list, as
        :meth:`_right_table` returns it), which is then read, not rebuilt.
        The map is spelled with :meth:`_walk` and checked on every edge of
        ``self.right``; None if an edge disagrees (no homomorphism extends
        the images) or an image lies outside ``other``.  Integer work only;
        degrees may differ.  Without ``images`` the map would be onto
        ``other``, so by Lagrange it is None, with no walk, unless |other|
        divides |self|.
        """
        n = len(self.generators)
        count = len(other.generators) if images is None else len(images)
        if count != n:
            raise ValueError(f"need {n} generator images, got {count}")
        if images is None:
            if self.order % other.order:
                return None
            tables = other._table()
        elif any(isinstance(p, Permutation) and p not in other for p in images):
            return None
        else:
            tables = [p if isinstance(p, list) else other._right_table(p) for p in images]
        a = self._walk(tables)
        for table, t in zip(self._table(), tables):
            # edge i -> table[i]: a[table[i]] must be a[i] times the image
            if list(map(t.__getitem__, a)) != list(map(a.__getitem__, table)):
                return None
        return a

    def maps_onto(self, other: "GeneratedGroup") -> bool:
        """Does generator i -> other.generators[i] extend to a homomorphism?

        Such a map is onto, so it needs |other| to divide |self|, which
        :meth:`hom_into` tests before it walks.  For two quotients B3/N and
        B3/H by the same generators, it exists exactly when N <= H.
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
    order: int | None = None,
) -> GeneratedGroup:
    """Breadth-first closure of the generators, recording a Schreier tree
    and the right-multiplication table (every product is looked up anyway).

    Up to degree 256 the closure runs on byte strings: a step is
    ``current.translate(table)``, the table being the generator's images
    padded to 256 bytes, and the index is keyed by the bytes.  Above it, the
    same loop multiplies image tuples with one ``map``.  No element is
    wrapped here: the group wraps one when it is read (see
    :class:`GeneratedGroup`), unchecked, as a product of the (checked)
    generators.

    Positive products suffice to close a finite group, so words use positive
    letters only (unless explicit ``seed_words`` carry inverses).  The BFS
    order makes the element list and the words reproducible across runs.

    Given ``order`` (which must be |<gens>|), the BFS stops at its last new
    element and records no table: the same elements, tree and words, without
    the products that would only fill the table.  ``max_size`` trips at the
    same size either way, and a closure that ends short of ``order`` raises
    InternalInconsistencyError.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise DegreeMismatchError("generators must share a degree")
    if seed_words is None:
        seed_words = [FreeWord(tag, ((i, 1),)) for i in range(len(gens))]
    # current * gen sends i to gen[current[i]]
    if degree <= 256:
        identity: bytes | tuple[int, ...] = bytes(range(degree))
        pad = bytes(256 - degree)
        tables = [bytes(g.images) + pad for g in gens]
        mul = bytes.translate
    else:
        identity = tuple(range(degree))
        tables = [g.images.__getitem__ for g in gens]

        def mul(current, step):
            return tuple(map(step, current))

    index = {identity: 0}
    found = [identity]
    append = found.append
    parent, via = [0], [0]
    right: list[list[int]] | None = [[] for _ in gens] if order is None else None
    cursor = 0
    while cursor < len(found) and len(found) != order:
        current = found[cursor]
        for g, table in enumerate(tables):
            product = mul(current, table)
            j = index.get(product)
            if j is None:
                j = index[product] = len(found)
                append(product)
                parent.append(cursor)
                via.append(g)
                if len(found) > max_size:
                    raise GroupSizeCapExceeded(max_size, len(found))
            if right is not None:
                right[g].append(j)
        cursor += 1
    if order is not None and len(found) != order:
        raise InternalInconsistencyError(
            f"closure has {len(found)} elements, not the given order {order}"
        )
    return GeneratedGroup(
        gens, tag, found, index, parent, via, right, seed_words, word_basis
    )


def closure_order(gens: Sequence[Permutation], max_size: int = DEFAULT_GROUP_SIZE_CAP) -> int:
    """|<gens>|, by the same closure as :func:`generate_group`."""
    return generate_group(gens, max_size=max_size).order


def _reach(size: int, tables: Sequence[Sequence[int]]) -> int:
    """How many of the indices 0..size-1 a BFS from 0 reaches, a step being
    i -> table[i] for each table; it stops once all ``size`` are reached."""
    seen = bytearray(size)
    seen[0] = 1
    reached = [0]
    for i in reached:
        for table in tables:
            j = table[i]
            if not seen[j]:
                seen[j] = 1
                reached.append(j)
                if len(reached) == size:
                    return size
    return len(reached)


def commutator_subgroup(
    G: GeneratedGroup, max_size: int = DEFAULT_GROUP_SIZE_CAP
) -> GeneratedGroup:
    """[G,G] as the normal closure of the generator commutators.

    Seed elements are g [a_i, a_j]^(+-1) g^-1 for g over all of G, in G's
    BFS order, each kept at its first occurrence, so every word
    representative is a literal product of conjugated commutators; in
    particular all exponent sums vanish, which is what "lies in [F2,F2]"
    means when G is a two-generator quotient of F2.

    The seeds are read off G's tables, with no product: for a commutator c,
    D[j] = index of e_j^-1 c e_j is a walk over the tables of conjugation
    by each generator s (s^-1 e s: a left table, then s's row of ``right``),
    and g c g^-1 is D at the index of g^-1.  The closure is then
    :func:`generate_group` with the known order |[G,G]|, so it stops at its
    last new element and records no table.

    That order is counted by :func:`_reach` on G's own tables: the indices
    reached from the identity when a step is right multiplication by a
    generator commutator c or conjugation s^-1 x s by a generator s.  The
    reached set S contains e and is closed under both moves, so S <= [G,G].
    Conversely, by induction on k, S holds every product w of k conjugated
    commutators: w (g c g^-1) = g ((g^-1 w g) c) g^-1, where g^-1 w g is
    again such a product, and conjugation by g is a composite of generator
    conjugations (in a finite group, inverses are powers; so is c^-1 of c).
    So S = [G,G], and the closure's guard against ending short of that
    order cross-checks the two computations.
    """
    right = G._table()
    inv = G._inverse_table()
    conj = [
        [row[k] for k in G._walk(right, G.index_of(s.inverse()))]
        for row, s in zip(right, G.generators)
    ]
    comms: list[tuple[list[int], FreeWord, FreeWord]] = []
    moves = list(conj)
    for (i, a), (j, b) in itertools.combinations(enumerate(G.generators), 2):
        comm_word = FreeWord(G.tag, ((i, 1), (j, 1), (i, -1), (j, -1)))
        comm = a * b * a.inverse() * b.inverse()
        comms.append((G._walk(conj, G.index_of(comm)), comm_word, comm_word.inv()))
        moves.append(G._right_table(comm))
    seeds: list[Permutation] = []
    seed_words: list[FreeWord] = []
    seen = {0}  # the identity is never a seed
    for i in range(G.order):
        for D, w, w_inv in comms:
            c = D[inv[i]]  # g c g^-1, then its inverse
            for j, cw in ((c, w), (inv[c], w_inv)):
                if j in seen:
                    continue
                seen.add(j)
                seeds.append(G.element(j))
                g_word = G._word_at(i)
                seed_words.append(g_word * cw * g_word.inv())
    if not seeds:
        seeds, seed_words = [G.identity], [empty_word(G.tag)]
    return generate_group(
        seeds,
        tag=G.tag,
        max_size=max_size,
        word_basis=G.word_basis,
        seed_words=seed_words,
        order=_reach(G.order, moves),
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
    """True iff the given elements of G generate all of it: :func:`_reach`
    with right multiplication by each element, read from a table built on
    G's own multiplication table (no permutation product)."""
    elems = list(elems)
    for p in elems:
        if p not in G:
            raise ValueError(f"element {p.images} is not in the group")
    return _reach(G.order, [G._right_table(p) for p in elems]) == G.order
