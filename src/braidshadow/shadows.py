"""GT-shadows over a fixed target subgroup and their groupoid operations.

A shadow with target N is a pair (m, f): m a residue mod N_ord with 2m+1 a
unit, f a commutator word in x, y taken mod N_F2, such that the two hexagon
relations hold mod N and the induced endomorphism

    T: sigma_1 -> sigma_1^(2m+1) N,  sigma_2 -> f^-1 sigma_2^(2m+1) f N

maps B3 onto B3/N.  The kernel of T is the shadow's source; composition and
inversion below make the collection of all shadows a groupoid over the poset
of targets.  Both apply one map to elements: E_{m,f} on F2 cosets,
tabulated by ``hom_into`` (:func:`_e_map`) from T's checked image of
sigma_2, and the same map decides whether a shadow is settled
(:func:`_settled_e_map`).  No word is substituted; a result's word is the
one its quotient's ``f2_commutator`` spells.

The k-th powers, k = 2m+1, that T is made of depend on (N, m) and not on f.
:func:`_powers` reads them off B3/N's generator rows once per unit m and
keeps them on N, so a shadow forms only the products that involve its own
F.  E is T restricted to F2 = <x = sigma_1^2, y = sigma_2^2>, so its
generator images are the squares of T's.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import (
    BraidRelationError,
    CandidateCapExceeded,
    InternalInconsistencyError,
    SourceTargetMismatchError,
)
from .perms import GenHom, Permutation, is_generating_set
from .subgroups import NfiSubgroup, QuotientData, nfi_equal
from .words import (
    C_WORD,
    SIGMA1,
    SIGMA2,
    TAG_B3,
    TAG_F2,
    Y,
    FreeWord,
    embed_f2_in_b3,
    empty_word,
    require_commutator_form,
    tau,
    theta,
    word_to_text,
)

DEFAULT_CANDIDATE_CAP = 2_000_000


class GtShadow:
    """One morphism of the groupoid: source(s) -> target.

    f is carried in two forms: a literal commutator word over x, y (what
    is printed, and what the word-level references substitute) and its
    image in F2/N_F2.  Two shadows are the same morphism iff their targets, m
    residues and f images agree; the word is just a representative.
    The source is ker T, decided by :func:`shadow_source` and never by a
    caller (:func:`invert_shadow` presets an unsettled shadow's inverse's).
    ``_e`` keeps the E table of :func:`_e_table`, one for every realization
    of the source.
    """

    __slots__ = ("target", "m", "f_word", "f_elt", "_source", "_e")

    def __init__(self, target: NfiSubgroup, m: int, f_word: FreeWord, f_elt: Permutation):
        self.target = target
        self.m = m % target.data.n_ord
        self.f_word = f_word
        self.f_elt = f_elt
        self._source: NfiSubgroup | None = None
        self._e: list[int] | None = None

    def key(self) -> tuple[int, Permutation]:
        """The pair that identifies the shadow among those with one target."""
        return (self.m, self.f_elt)

    def __eq__(self, other):
        return (
            isinstance(other, GtShadow)
            and self.target.content_id == other.target.content_id
            and self.m == other.m
            and self.f_elt == other.f_elt
        )

    def __hash__(self):
        return hash((self.target.content_id, self.m, self.f_elt))

    def __repr__(self):
        return (
            f"GtShadow(m={self.m}, f={word_to_text(self.f_word) or '1'}, "
            f"target={self.target.label})"
        )


def identity_shadow(N: NfiSubgroup) -> GtShadow:
    """The identity morphism at N: (0, empty word).  T = N.hom, so it is settled."""
    return GtShadow(N, 0, empty_word(TAG_F2), N.data.f2_quotient.identity)


def check_hexagons(N: NfiSubgroup, m: int, f: FreeWord) -> bool:
    """Both hexagon relations mod N, evaluated literally as braid words.

    sigma_1^(2m+1) f^-1 sigma_2^(2m+1) f  =  f^-1 sigma_1 sigma_2 x^-m c^m
    f^-1 sigma_2^(2m+1) f sigma_1^(2m+1)  =  sigma_2 sigma_1 y^-m c^m f

    m is reduced mod N_ord first, which is exact: sigma_i^(2m+1) =
    sigma_i (sigma_i^2)^m, and x, y and c have orders dividing N_ord.  The
    word-level reference for :func:`is_shadow`; the library does not call it.
    """
    m %= N.data.n_ord
    k = 2 * m + 1
    femb = embed_f2_in_b3(f)
    conj = femb.inv() * SIGMA2**k * femb
    x_w = SIGMA1 * SIGMA1
    y_w = SIGMA2 * SIGMA2
    lhs1 = SIGMA1**k * conj
    rhs1 = femb.inv() * SIGMA1 * SIGMA2 * x_w ** (-m) * C_WORD**m
    lhs2 = conj * SIGMA1**k
    rhs2 = SIGMA2 * SIGMA1 * y_w ** (-m) * C_WORD**m * femb
    ev = N.hom.evaluate
    return ev(lhs1) == ev(rhs1) and ev(lhs2) == ev(rhs2)


def check_simplified_hexagons(N: NfiSubgroup, m: int, f: FreeWord) -> bool:
    """The two-membership form, valid when f is a commutator word:

    f theta(f) in N_F2   and   tau^2(y^m f) tau(y^m f) y^m f in N_F2.

    m is reduced mod N_ord first, which is exact: tau(y^m) = (xy)^-m and
    tau^2(y^m) = x^m, and x, y and xy have orders dividing N_ord mod N_F2
    (yx = c z^-1 with z = sigma_2 x sigma_2^-1, and xy is conjugate to yx).
    """
    require_commutator_form(f)
    m %= N.data.n_ord
    quotient = N.data.f2_quotient
    if not quotient.evaluate(f * theta(f)).is_identity():
        return False
    g = Y**m * f
    w = tau(tau(g)) * tau(g) * g
    return quotient.evaluate(w).is_identity()


def _t_f2_onto(N: NfiSubgroup, big_f: Permutation) -> bool:
    """Do x and F^-1 y F generate F2/N_F2?  (F: f's image.)

    For a unit 2m+1 this is T being onto B3/N, which is the cheaper thing
    to test because it avoids the six extra cosets.  T is onto exactly when
    x^(2m+1) and F^-1 y^(2m+1) F generate F2/N_F2, and raising an element
    to a power prime to N_ord keeps the cyclic group it generates, since
    the orders of x and y divide N_ord.  So the test does not involve m.
    x is a generator of F2/N_F2, so its table is that group's own row, and
    only F^-1 y F's is built.
    """
    d = N.data
    ey = big_f.inverse() * d.y_image * big_f
    return is_generating_set(d.f2_quotient, (d.x_image, ey))


def is_shadow(N: NfiSubgroup, m: int, f: FreeWord) -> bool:
    """Full membership test: unit, commutator coset, hexagons, surjectivity.

    Only f's image F in F2/N_F2 is used, and the hexagons are the
    element tests of :func:`_hexagon_points`.  That is exact for any
    word f whose image lies in the commutator subgroup: the hexagons of
    :func:`check_hexagons` depend only on m mod N_ord and on F, some
    commutator word has image F, and on a commutator word the full and the
    simplified hexagons agree.  gcd(2m+1, N_ord) only depends on m mod N_ord.
    The unit check comes first, because surjectivity (:func:`_t_f2_onto`)
    is tested on F alone, which is exact only for a unit 2m+1.
    """
    d = N.data
    m %= d.n_ord
    if math.gcd(2 * m + 1, d.n_ord) != 1:
        return False
    big_f = d.f2_quotient.evaluate(f)
    if big_f not in d.f2_commutator:
        return False
    hexagons = _theta_hexagon(N, big_f) and _tau_hexagon(N, m)(big_f)
    return hexagons and _t_f2_onto(N, big_f)


class _Powers(NamedTuple):
    """What every shadow (m, f) with target N reads, k = 2m+1: sigma_1^k,
    sigma_2^k and c^k in B3/N; the index of (c^r)^k (r = ``c_period``) and
    the right table of x^k = (sigma_1^k)^2 in F2/N_F2.  y^k is not kept:
    E's image of y is the square of T's image of sigma_2 (:func:`_e_map`)."""

    g1: Permutation
    g2: Permutation
    c: Permutation
    cr: int
    x_table: list[int]


def _along(rows: list[list[int]], steps: int) -> int:
    """The index reached from the identity by ``steps`` right
    multiplications by generators, taking the ``rows`` in turn."""
    i = 0
    for row in itertools.islice(itertools.cycle(rows), steps):
        i = row[i]
    return i


def _powers(N: NfiSubgroup, m: int) -> _Powers:
    """The :class:`_Powers` of (N, m), m reduced mod N_ord; none involves f.

    Each power is an element B3/N already holds, read off its generator
    rows with no product formed: sigma_i^k is k steps along
    ``b3_quotient.right[i]``, and c^k = Delta^(2k) = (sigma_1 sigma_2)^(3k)
    is 6k steps along both rows in turn; c has order dividing N_ord, so its
    exponent is reduced mod N_ord first.  x^k is the one product,
    sigma_1^k sigma_1^k, and its table is ``f2_quotient.right[0]`` itself
    when x^k = x.  Kept on N for a unit k only, so N holds at most one
    entry per unit residue mod N_ord.
    """
    pw = N._powers.get(m)
    if pw is not None:
        return pw
    d = N.data
    n, k = d.n_ord, 2 * m + 1
    b, q = d.b3_quotient, d.f2_quotient
    g1 = b.element(_along(b.right[:1], k))
    pw = _Powers(
        g1=g1,
        g2=b.element(_along(b.right[1:], k)),
        c=b.element(_along(b.right, 6 * (k % n))),
        cr=q.index_of(b.element(_along(b.right, 6 * (d.c_period * k % n)))),
        x_table=q._right_table(g1 * g1),
    )
    if math.gcd(k, n) == 1:
        N._powers[m] = pw
    return pw


def t_hom(s: GtShadow) -> GenHom:
    """The homomorphism B3 -> B3/N attached to a shadow, as generator images.

    The braid relation is a theorem once the hexagons hold, so a violation
    here means the shadow was built outside the advertised constructors.
    The central element must land on its own (2m+1)-st power; that is
    asserted too.  sigma_1^k, sigma_2^k and c^k come from :func:`_powers`,
    so only the conjugation by F is formed per shadow.
    """
    k = 2 * s.m + 1
    pw = _powers(s.target, s.m)
    big_f = s.f_elt
    im1 = pw.g1
    im2 = big_f.inverse() * pw.g2 * big_f
    try:
        hom = GenHom(TAG_B3, (im1, im2))
    except BraidRelationError as exc:
        raise InternalInconsistencyError(
            f"braid relation failed for T at {s!r}; hexagons must not hold"
        ) from exc
    delta_im = im1 * im2 * im1
    if delta_im * delta_im != pw.c:
        raise InternalInconsistencyError(
            f"central element image is not c^{k} for {s!r}"
        )
    return hom


def shadow_source(s: GtShadow) -> NfiSubgroup:
    """ker(T), wrapped as a subgroup object; computed once and cached on s.

    The one caller of :func:`t_hom`, and the source of every shadow but an
    unsettled shadow's inverse (:func:`invert_shadow`).  A settled shadow
    (kernel equal to its target) gets the target object itself, so every
    morphism on one object lives in one realization and inverses stay
    comparable to the originals.  Only an unsettled kernel is built as a
    new subgroup, around the homomorphism :func:`t_hom` checked, so the
    braid relation is tested once; ``NfiSubgroup`` checks that the kernel
    lies in PB3.  A settled one is N, and N <= PB3.

    Settledness is decided on F2/N_F2, which is 6r times smaller than B3/N
    (:func:`_settled_e_map`, given T's image of sigma_2), and a settled
    shadow keeps the E map that decided it.  With k = 2m+1,
    E = E_{m,f}: x -> x^k, y -> F^-1 y^k F (F: f's image), and
    r = ``c_period``, the least r >= 1 with c^r in F2/N_F2, the shadow is
    settled iff

    1. E is a well-defined, injective endomorphism of F2/N_F2;
    2. E(c^r) = c^(kr);
    3. gcd(k, r) = 1.

    Proof sketch.  T followed by B3/N -> S3 is rho, so ker T <= PB3 =
    F2 x <c>, and on PB3, T is w c^e -> E(w) c^(ke), since :func:`t_hom`
    asserts T(c) = c^k.  N is N_F2 together with w0^-1 c^r, w0 in F2 being
    any word for c^r, so N <= ker T iff E kills N_F2 and E(w0) = c^(kr):
    conditions 1 (well defined) and 2.  Then ker T = N iff the induced map
    of PB3/N, of order r |F2/N_F2|, is injective.  That map is injective on
    F2/N_F2 iff E is.  If gcd(k, r) = d > 1 and E is injective, E is onto
    the finite F2/N_F2, so it hits c^(-kr/d), and that preimage times
    c^(r/d) is a nontrivial kernel element.  If gcd(k, r) = 1, w c^e in
    the kernel forces c^(ke) into F2/N_F2, so r | e, and w c^e lies in
    F2/N_F2, where E is injective.  So the test is exact for a non-unit k
    and a non-surjective T too.
    """
    if s._source is None:
        hom = t_hom(s)
        cap = s.target.max_group_size
        s._e = _settled_e_map(s, hom.images[1])
        if s._e is not None:
            s._source = s.target
        else:
            f_text = word_to_text(s.f_word) or "1"
            if len(f_text) > 24:
                f_text = f_text[:21] + "..."
            s._source = NfiSubgroup(
                hom, label=f"{s.target.label}<-({s.m},{f_text})", max_group_size=cap
            )
    return s._source


def _settled_e_map(s: GtShadow, t2: Permutation) -> list[int] | None:
    """E out of the target's own F2/N_F2 if ker T = N, else None; t2 is T's
    image of sigma_2.  The three conditions of :func:`shadow_source`, the
    cheapest (gcd(k, r) = 1) first; :func:`_e_map` tests condition 1.
    T(c) = c^k is :func:`t_hom`'s check; (c^r)^k is :func:`_powers`'."""
    d = s.target.data
    if math.gcd(2 * s.m + 1, d.c_period) != 1:
        return None
    a = _e_map(s, s.target, t2)
    if a is None or a[d.f2_quotient.index_of(d.c_period_image)] != _powers(s.target, s.m).cr:
        return None
    return a


def _theta_hexagon(N: NfiSubgroup, big_f: Permutation) -> bool:
    """f theta(f) in N_F2, on f's image F: F Delta F Delta^-1 = 1 in B3/N."""
    delta = N.data.delta_image
    return big_f * delta * big_f == delta


def _tau_hexagon(N: NfiSubgroup, m: int):
    """The test of f's image F for tau^2(g) tau(g) g in N_F2, g = y^m f, as
    torsion: (G u^-1)^3 = c^(m-1) in B3/N, G = y^m F, u = sigma_1 sigma_2.

    The membership reads u^2 G u^-1 G u^-1 c^-m G = 1; c = u^3 is central,
    so it is (u^-1 G)^3 = c^(m-1), a conjugate of the cube.  y^m and
    c^(m-1) are walked off the generator rows (:func:`_along`), so a grid
    point costs four products.
    """
    d = N.data
    b, q = d.b3_quotient, d.f2_quotient
    y_m = q.element(_along(q.right[1:], m % d.n_ord))
    c_m1 = b.element(_along(b.right, 6 * ((m - 1) % d.n_ord)))
    g1, g2 = N.hom.images
    u_inv = (g1 * g2).inverse()

    def holds(big_f: Permutation) -> bool:
        P = y_m * big_f * u_inv
        return P * P * P == c_m1

    return holds


def _hexagon_points(N: NfiSubgroup, units: list[int]):
    """The grid points (m, F) that satisfy the simplified hexagons, in
    (m ascending, F discovery order), worked on B3/N's elements.

    In B3, theta(w) = Delta w Delta^-1 and tau(w) = u w u^-1 c^(-e_y(w))
    with u = sigma_1 sigma_2, so for a commutator f with image F the two
    memberships of :func:`check_simplified_hexagons` are
    :func:`_theta_hexagon` and :func:`_tau_hexagon`.  The first does not
    involve m and filters each F once; the second reads its powers once per
    m.  No word and no power is built.
    """
    flat = [F for F in N.data.f2_commutator.elements_in_order if _theta_hexagon(N, F)]
    for m in units:
        holds = _tau_hexagon(N, m)
        yield from ((m, F) for F in flat if holds(F))


def enumerate_shadows(
    N: NfiSubgroup,
    max_candidates: int = DEFAULT_CANDIDATE_CAP,
    threads: int = 1,
) -> list[GtShadow]:
    """All shadows with target N, in (m ascending, f discovery order).

    The candidate grid is {unit residues} x {commutator subgroup of
    F2/N_F2}.  Every test works on elements of B3/N: the hexagons
    (:func:`_hexagon_points`), then surjectivity on f's image
    alone (:func:`_t_f2_onto`; every m of the grid is a unit, so m does not
    enter, and each F is tested once).  Only a kept shadow gets a word,
    spelled by ``f2_commutator.word_of``; :func:`check_simplified_hexagons`
    stays as the word-level reference.

    The cap is checked on every call, then the result is memoized on N
    itself, so every shadow returned has target N.  Enumeration is serial;
    ``threads`` is accepted for compatibility and ignored.
    """
    d = N.data
    units = [m for m in range(d.n_ord) if math.gcd(2 * m + 1, d.n_ord) == 1]
    total = len(units) * d.f2_commutator.order
    if total > max_candidates:
        raise CandidateCapExceeded(max_candidates, total)
    if N._shadows is None:
        comm = d.f2_commutator
        onto: dict[Permutation, bool] = {}
        kept = []
        for m, F in _hexagon_points(N, units):
            if F not in onto:
                onto[F] = _t_f2_onto(N, F)
            if onto[F]:
                kept.append(GtShadow(N, m, comm.word_of(F), F))
        N._shadows = kept
    return list(N._shadows)


def _e_map(s: GtShadow, source: NfiSubgroup, t2: Permutation) -> list[int] | None:
    """E_{m,f}: x -> x^(2m+1), y -> F^-1 y^(2m+1) F (F: f's image), from
    ``source``'s F2/K_F2 onto F2/N_F2, on indices, or None unless it is
    a well-defined bijection.  E is T on F2, so its images are T's squares:
    x^k = (sigma_1^k)^2 and F^-1 y^k F = t2^2, t2 = F^-1 sigma_2^k F being
    T's image of sigma_2 as :func:`t_hom` formed it.  Tabulated and checked
    by ``hom_into``, which reads x^k's right table from :func:`_powers` and
    builds only F^-1 y^k F's; :func:`~braidshadow.words.e_endo` is the word
    reference.
    """
    x_table = _powers(s.target, s.m).x_table
    q = s.target.data.f2_quotient
    a = source.data.f2_quotient.hom_into(q, (x_table, t2 * t2))
    return a if a is not None and len(a) == len(set(a)) == q.order else None


def _e_table(s: GtShadow) -> list[int]:
    """:func:`_e_map` from K = source(s)'s F2/K_F2 onto F2/N_F2, built
    once (a settled shadow's by :func:`shadow_source`) and kept on s.
    Every realization of K indexes F2/K_F2 alike
    (:class:`~braidshadow.perms.GeneratedGroup`), so it serves them all.
    Only a shadow whose source is not its target reaches the build, and
    T's image of sigma_2 is read off K's homomorphism, with no T formed:

    - :func:`shadow_source` built an unsettled source around T's checked
      ``GenHom`` itself;
    - the inverse t of an unsettled s gets s's target N as its source, and
      then T_t = N.hom.  K's realization is T_s, so sigma_1 goes to
      (sigma_1^k)^k~ = sigma_1 (k k~ = 1 mod 2 N_ord, and sigma_1^2 has
      order dividing N_ord), and t's f image is F^-1 as a permutation, so
      sigma_2 goes to F (F^-1 sigma_2^k F)^k~ F^-1 = sigma_2.
    """
    source = shadow_source(s)
    if s._e is None:
        a = _e_map(s, source, source.hom.images[1])
        if a is None:
            raise InternalInconsistencyError(
                f"induced map on F2 cosets is not a bijection for {s!r}"
            )
        s._e = a
    return s._e


def _commutator_word(d: QuotientData, f_elt: Permutation, s: GtShadow) -> FreeWord:
    if f_elt not in d.f2_commutator:
        raise InternalInconsistencyError(f"f escaped the commutator subgroup for {s!r}")
    return d.f2_commutator.word_of(f_elt)


def compose_shadows(s1: GtShadow, s2: GtShadow) -> GtShadow:
    """Groupoid composition: s2 followed by s1, defined when
    source(s1) = target(s2) as kernels.

    The monoid law (m1,f1)(m2,f2) = (2 m1 m2 + m1 + m2, f1 E_{m1,f1}(f2)),
    mod the target data, on elements: F = F1 E(F2), E = s1's :func:`_e_table`
    at F2's index in s2's target.  The word is ``f2_commutator``'s, so it
    never grows; :func:`~braidshadow.words.bullet_monoid` is the word reference.
    """
    if not nfi_equal(shadow_source(s1), s2.target):
        raise SourceTargetMismatchError(
            f"cannot compose: source of {s1!r} differs from target of {s2!r}"
        )
    d = s1.target.data
    a = _e_table(s1)
    image = d.f2_quotient.element(a[s2.target.data.f2_quotient.index_of(s2.f_elt)])
    f_elt = s1.f_elt * image
    m = (2 * s1.m * s2.m + s1.m + s2.m) % d.n_ord
    return GtShadow(s1.target, m, _commutator_word(d, f_elt, s1), f_elt)


def invert_shadow(s: GtShadow) -> GtShadow:
    """The inverse morphism: target and source swap.

    An unsettled shadow's inverse gets the original target object as its
    source, whose homomorphism is the inverse's T (:func:`_e_table`);
    :func:`shadow_source` decides every other inverse's, a settled one's N.
    m inverts through the odd-part formula (2m+1)(2m~+1) = 1 mod 2 N_ord,
    i.e. m~ = -(2m+1)^-1 m.  f~'s image is the preimage of F^-1 under
    :func:`_e_table`, and its word the source's ``f2_commutator``'s.
    """
    d = s.target.data
    k = 2 * s.m + 1
    try:
        k_inv = pow(k, -1, d.n_ord)
    except ValueError:
        raise ValueError(
            f"2m+1 = {k} is not a unit mod {d.n_ord}; not a valid shadow"
        ) from None
    m_inv = (-k_inv * s.m) % d.n_ord
    source = shadow_source(s)
    sd = source.data
    a = _e_table(s)
    f_elt = sd.f2_quotient.element(a.index(d.f2_quotient.index_of(s.f_elt.inverse())))
    t = GtShadow(source, m_inv, _commutator_word(sd, f_elt, s), f_elt)
    t._source = None if source is s.target else s.target
    return t
