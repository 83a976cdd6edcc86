import hashlib
import itertools
import json
import math

import pytest

from braidshadow.errors import (
    BraidRelationError,
    CandidateCapExceeded,
    NotCommutatorWordError,
    SourceTargetMismatchError,
)
from braidshadow.groupoid import connected_component
from braidshadow.perms import (
    GeneratedGroup,
    GenHom,
    Permutation,
    block_sum,
    closure_order,
    is_generating_set,
    kernel_contained,
    kernels_equal,
)
from braidshadow.shadows import (
    GtShadow,
    _e_map,
    _e_table,
    _hexagon_points,
    _powers,
    _settled_e_map,
    _t_f2_onto,
    _tau_hexagon,
    _theta_hexagon,
    check_hexagons,
    check_simplified_hexagons,
    compose_shadows,
    enumerate_shadows,
    identity_shadow,
    invert_shadow,
    is_shadow,
    shadow_source,
    t_hom,
)
from braidshadow.subgroups import (
    NfiSubgroup,
    catalog_search,
    from_f2_quotient,
    new_nfi,
    nfi_contains,
    nfi_equal,
    nfi_intersect,
    rho,
)
from braidshadow.words import (
    COSET_TABLE,
    C_WORD,
    DELTA,
    SIGMA1,
    SIGMA2,
    TAG_B3,
    TAG_F2,
    TRANSVERSAL_LABELS,
    X,
    Y,
    bullet_monoid,
    e_endo,
    embed_f2_in_b3,
    empty_word,
    tau,
    theta,
    word_to_text,
)

EMPTY = empty_word(TAG_F2)
COMM = X * Y * X.inv() * Y.inv()


def all_shadows(catalog4):
    return [(N, s) for N in catalog4 for s in enumerate_shadows(N)]


# ---------------------------------------------------------------------------
# hexagons

def test_identity_candidate_always_passes(pb3, catalog4):
    for N in [pb3, *catalog4]:
        assert check_hexagons(N, 0, EMPTY)
        assert check_simplified_hexagons(N, 0, EMPTY)
        assert is_shadow(N, 0, EMPTY)


def test_trivial_target_accepts_everything(pb3):
    # mod PB3 the hexagons degenerate: any m, any commutator word
    for m in range(4):
        for f in (EMPTY, COMM, COMM * COMM):
            assert check_hexagons(pb3, m, f)
            assert check_simplified_hexagons(pb3, m, f)


def test_hexagon_failure_witness(catalog4):
    # m=1 with trivial f: the first relation survives but the second dies
    # on the largest catalog quotient
    N = catalog4[-1]
    assert not check_hexagons(N, 1, EMPTY)
    assert not check_simplified_hexagons(N, 1, EMPTY)
    # first membership holds trivially (f theta(f) is the empty word)
    g = Y**1
    w = tau(tau(g)) * tau(g) * g
    assert not N.evaluate_f2(w).is_identity()


def test_simplified_hexagons_reject_non_commutator_words(catalog4):
    with pytest.raises(NotCommutatorWordError):
        check_simplified_hexagons(catalog4[2], 0, X)


def test_hexagons_agree_with_simplified_on_the_grid(catalog4):
    # exhaustive: every unit residue times every commutator element; on
    # catalog_search(5)[6], 44 of the 60 commutator elements fail theta
    wide = catalog_search(5)[6]
    thetas = [_theta_hexagon(wide, F) for F in wide.data.f2_commutator.elements_in_order]
    assert thetas.count(False) == 44
    for N in [*catalog4, wide]:
        d = N.data
        for m in range(d.n_ord):
            for elt in d.f2_commutator.elements_in_order:
                f = d.f2_commutator.word_of(elt)
                assert check_hexagons(N, m, f) == check_simplified_hexagons(N, m, f)


def _literal_hexagons(N, m, f):
    # both relations as braid words with m as given, no reduction
    k = 2 * m + 1
    femb = embed_f2_in_b3(f)
    conj = femb.inv() * SIGMA2**k * femb
    rhs1 = femb.inv() * SIGMA1 * SIGMA2 * (SIGMA1 * SIGMA1) ** (-m) * C_WORD**m
    rhs2 = SIGMA2 * SIGMA1 * (SIGMA2 * SIGMA2) ** (-m) * C_WORD**m * femb
    ev = N.hom.evaluate
    return ev(SIGMA1**k * conj) == ev(rhs1) and ev(conj * SIGMA1**k) == ev(rhs2)


def _literal_simplified_hexagons(N, m, f):
    quotient = N.data.f2_quotient
    g = Y**m * f
    return (
        quotient.evaluate(f * theta(f)).is_identity()
        and quotient.evaluate(tau(tau(g)) * tau(g) * g).is_identity()
    )


def test_hexagons_reduce_m_mod_n_ord(catalog4):
    for N in catalog4:
        d = N.data
        for elt in d.f2_commutator.elements_in_order[:3]:
            f = d.f2_commutator.word_of(elt)
            huge = 10**20
            assert check_hexagons(N, huge, f) == check_hexagons(N, huge % d.n_ord, f)
            assert check_simplified_hexagons(N, huge, f) == check_simplified_hexagons(
                N, huge % d.n_ord, f
            )
            for m in range(-d.n_ord, 2 * d.n_ord):
                assert check_hexagons(N, m, f) == _literal_hexagons(N, m, f)
                assert check_simplified_hexagons(N, m, f) == _literal_simplified_hexagons(
                    N, m, f
                )


def test_tau_hexagon_torsion_form_matches_the_word_membership(cat09, cat10):
    # (G u^-1)^3 = c^(m-1) against tau^2(g) tau(g) g in N_F2, g = y^m f,
    # at every m (unit or not) and every commutator element
    for N in [*catalog_search(5), cat09, cat10]:
        d = N.data
        comm = d.f2_commutator
        for m in range(d.n_ord):
            holds = _tau_hexagon(N, m)
            for F in comm.elements_in_order:
                g = Y**m * comm.word_of(F)
                w = tau(tau(g)) * tau(g) * g
                assert holds(F) == d.f2_quotient.evaluate(w).is_identity(), (N.label, m)


def test_enumeration_raises_no_power(monkeypatch):
    # every power the grid reads is walked off the quotients' rows
    kernels = catalog_search(5)
    for N in kernels:
        N.data
    calls = []
    original = Permutation.__pow__

    def counting(p, n):
        calls.append(n)
        return original(p, n)

    monkeypatch.setattr(Permutation, "__pow__", counting)
    for N in kernels:
        enumerate_shadows(N)
    assert calls == []


def test_is_shadow_rejections(catalog4):
    N = catalog4[2]  # n_ord 3
    assert not is_shadow(N, 1, EMPTY)  # 2m+1 = 3 shares a factor with 3
    assert not is_shadow(N, 0, X)  # x is not in the commutator subgroup


# ---------------------------------------------------------------------------
# enumeration

def test_shadow_counts_frozen(pb3, catalog4):
    assert len(enumerate_shadows(pb3)) == 1
    assert [len(enumerate_shadows(N)) for N in catalog4] == [1, 2, 2, 2, 6]


def test_shadow_words_frozen(catalog4):
    words = [(s.m, word_to_text(s.f_word)) for s in enumerate_shadows(catalog4[4])]
    assert words == [
        (0, ""), (0, "xyXY"), (0, "xxyXYX"), (2, ""), (2, "xyXY"), (2, "xxyXYX")
    ]


def test_enumeration_matches_pointwise_test(catalog4, cat09, cat10):
    # f x^k has f's image but a nonzero exponent sum: not a commutator word
    for N in [*catalog4, cat09, cat10]:
        d = N.data
        keys = {s.key() for s in enumerate_shadows(N)}
        x_k = X ** d.x_image.order()
        for m in range(d.n_ord):
            for elt in d.f2_commutator.elements_in_order:
                f = d.f2_commutator.word_of(elt)
                assert is_shadow(N, m, f) == ((m, elt) in keys)
                assert is_shadow(N, m, f * x_k) == ((m, elt) in keys)


def test_word_free_enumeration_matches_the_word_level_reference(
    pb3, catalog4, cat09, cat10
):
    # reference: simplified hexagons on spelled words at every grid point,
    # then surjectivity by a permutation closure; catalog_search(5)[6] is
    # the one target here with commutator elements that fail theta
    for N in [pb3, *catalog4, cat09, cat10, catalog_search(5)[6]]:
        d = N.data
        comm = d.f2_commutator
        units = [m for m in range(d.n_ord) if math.gcd(2 * m + 1, d.n_ord) == 1]
        grid = [
            (m, elt) for m in units for elt in comm.elements_in_order
            if check_simplified_hexagons(N, m, comm.word_of(elt))
        ]
        assert list(_hexagon_points(N, units)) == grid, N.label
        onto = [
            (m, elt) for m, elt in grid
            if closure_order(
                (d.x_image ** (2 * m + 1), elt.inverse() * d.y_image ** (2 * m + 1) * elt)
            ) == d.f2_quotient.order
        ]
        got = [(s.m, s.f_word, s.f_elt) for s in enumerate_shadows(N)]
        assert got == [(m, comm.word_of(elt), elt) for m, elt in onto], N.label


def test_surjectivity_on_f_alone_matches_the_m_dependent_test(cat09, cat10):
    # for a unit k = 2m+1, x^k and F^-1 y^k F generate the cyclic groups of
    # x and F^-1 y F, so the generated subgroup does not depend on m
    checked = refused = 0
    for N in [*catalog_search(5), cat09, cat10]:
        d = N.data
        thetas = [F for F in d.f2_commutator.elements_in_order if _theta_hexagon(N, F)]
        for m in range(d.n_ord):
            k = 2 * m + 1
            if math.gcd(k, d.n_ord) != 1:
                continue
            for F in thetas:
                want = is_generating_set(
                    d.f2_quotient, (d.x_image**k, F.inverse() * d.y_image**k * F)
                )
                assert _t_f2_onto(N, F) == want, (N.label, m)
                checked += 1
                refused += not want
    assert (checked, refused) == (111, 30)  # not vacuous: some points fail


def test_surjectivity_is_tested_once_per_f(monkeypatch):
    # the test depends on F alone, so the grid's units do not repeat it
    calls = []

    def counting(N, big_f):
        calls.append((N.label, big_f))
        return _t_f2_onto(N, big_f)

    monkeypatch.setattr("braidshadow.shadows._t_f2_onto", counting)
    kernels = catalog_search(5)
    assert len(kernels) == 7
    for N in kernels:
        enumerate_shadows(N)
    assert len(calls) == len(set(calls)) == 19


def test_tree_spelled_inversion_matches_the_e_endo_table(pb3, catalog4, cat09, cat10):
    for N in [pb3, *catalog4, cat09, cat10]:
        d = N.data
        for s in enumerate_shadows(N):
            q = shadow_source(s).data.f2_quotient
            k = 2 * s.m + 1
            a = q.hom_into(
                d.f2_quotient, (d.x_image**k, s.f_elt.inverse() * d.y_image**k * s.f_elt)
            )
            images = [d.f2_quotient.elements_in_order[j] for j in a]
            reference = [
                d.f2_quotient.evaluate(e_endo(s.m, s.f_word, q.word_of(elt)))
                for elt in q.elements_in_order
            ]
            assert images == reference, s
            table = dict(zip(reference, q.elements_in_order))
            assert invert_shadow(s).f_elt == table[s.f_elt.inverse()], s


def test_enumeration_is_memoized_but_copied(catalog4):
    N = catalog4[1]
    first = enumerate_shadows(N)
    second = enumerate_shadows(N)
    assert first == second
    assert first is not second
    first.append("junk")
    assert enumerate_shadows(N) == second


def repad(N, pad_first):
    # fresh realization of the same kernel: pad with fixed points, which
    # changes the content id and so bypasses the enumeration memo
    pad = Permutation((0,))
    g1, g2 = N.hom.images
    if pad_first:
        images = (block_sum(pad, g1), block_sum(pad, g2))
    else:
        images = (block_sum(g1, pad), block_sum(g2, pad))
    return NfiSubgroup(GenHom("B3", images), f"fresh-{pad_first}")


def test_enumeration_thread_count_is_invisible(catalog4):
    N = catalog4[-1]
    seq = enumerate_shadows(repad(N, True))
    par = enumerate_shadows(repad(N, False), threads=3)
    assert [s.m for s in seq] == [s.m for s in par]
    assert len(seq) == len(enumerate_shadows(N))


def test_candidate_cap(catalog4):
    N = catalog4[-1]
    pad = Permutation.identity(2)
    g1, g2 = N.hom.images
    fresh = NfiSubgroup(
        GenHom("B3", (block_sum(pad, g1), block_sum(pad, g2))), "fresh-cap"
    )
    with pytest.raises(CandidateCapExceeded) as exc:
        enumerate_shadows(fresh, max_candidates=1)
    assert exc.value.cap == 1
    assert exc.value.count == 8  # two unit residues times four commutator cosets


def test_candidate_cap_is_checked_on_a_memo_hit(catalog4):
    N = catalog4[-1]
    enumerate_shadows(N)
    with pytest.raises(CandidateCapExceeded):
        enumerate_shadows(N, max_candidates=1)


def test_equal_realizations_keep_their_own_shadows(catalog4):
    images = catalog4[-1].hom.images
    alpha = NfiSubgroup(GenHom("B3", images), "alpha")
    beta = NfiSubgroup(GenHom("B3", images), "beta")
    assert enumerate_shadows(alpha) == enumerate_shadows(beta)
    for s in enumerate_shadows(beta):
        assert s.target is beta
        assert shadow_source(s) is beta


# ---------------------------------------------------------------------------
# the induced endomorphism T

def test_identity_shadow_t_is_the_projection(pb3, catalog4):
    for N in [pb3, *catalog4]:
        s = identity_shadow(N)
        assert s.m == 0
        assert s.f_word.is_empty()
        assert t_hom(s).images == N.hom.images
        assert shadow_source(s) is N  # eagerly known, no recomputation


def test_t_values_on_center_and_half_twist(catalog4):
    for N, s in all_shadows(catalog4):
        d = N.data
        k = 2 * s.m + 1
        hom = t_hom(s)
        assert hom.evaluate(C_WORD) == d.c_image**k
        expected_delta = s.f_elt.inverse() * d.delta_image * d.c_image**s.m
        assert hom.evaluate(DELTA) == expected_delta


def test_t_kernel_is_a_pure_braid_kernel(catalog4):
    for N, s in all_shadows(catalog4):
        assert kernel_contained(t_hom(s), rho())


def test_shadow_source_caching(catalog4):
    s = enumerate_shadows(catalog4[-1])[-1]
    src = shadow_source(s)
    assert shadow_source(s) is src
    # settled shadow: the kernel is the target, and the object is reused
    assert src is s.target


def test_unsettled_source_is_a_new_subgroup(catalog4):
    # (m, 1) planted at every residue, hexagons or not; frozen values
    distinct = {
        ("cat02", 1): ("cat02<-(1,1)", "ce0bc23bbe4edabb"),
        ("cat04", 1): ("cat04<-(1,1)", "141522e404806564"),
    }
    for N in catalog4:
        for m in range(N.data.n_ord):
            s = GtShadow(N, m, EMPTY, N.data.f2_quotient.identity)
            source = shadow_source(s)
            if (N.label, m) not in distinct:
                assert source is N
                continue
            assert source is not N
            assert (source.label, source.content_id) == distinct[N.label, m]
            assert source.data.b3_quotient.order == 6
            assert nfi_contains(N, source)


def test_settledness_matches_the_paired_closure(pb3, catalog4, cat09, cat10):
    # every grid point, shadow or not, whose T images satisfy the braid
    # relation: the table test against kernel equality by paired closure
    seen = {True: 0, False: 0}
    for N in [pb3, *catalog4, cat09, cat10]:
        d = N.data
        g1, g2 = N.hom.images
        for m in range(d.n_ord):
            k = 2 * m + 1
            if math.gcd(k, d.n_ord) != 1:
                continue
            for f in d.f2_commutator.elements_in_order:
                images = (g1**k, f.inverse() * g2**k * f)
                try:
                    hom = GenHom(TAG_B3, images)
                except BraidRelationError:
                    continue
                table = d.b3_quotient.hom_into(d.b3_quotient, images)
                settled = table is not None and len(set(table)) == d.b3_quotient.order
                assert settled == kernels_equal(hom, N.hom)
                seen[settled] += 1
    assert seen[True] > 0 and seen[False] > 0


def b3_table_settled(s):
    # ker T = N iff B3/N -> B3/N, sigma_i -> T(sigma_i), is well defined
    # (N <= ker T) and injective
    b3 = s.target.data.b3_quotient
    table = b3.hom_into(b3, t_hom(s).images)
    return table is not None and len(set(table)) == b3.order


def test_settled_criterion_matches_the_b3_tables_at_degree_seven(catalog7):
    # the F2/N_F2 criterion against B3/N's own table, on every shadow
    counts = {True: 0, False: 0}
    for N in catalog7:
        for s in enumerate_shadows(N):
            settled = b3_table_settled(s)
            assert (_settled_e_map(s, t_hom(s).images[1]) is not None) == settled
            assert (shadow_source(s) is N) == settled
            counts[settled] += 1
    assert counts == {True: 193, False: 12}


def c_shift_subgroup(r):
    # B3 acting on (j mod r, coset of PB3) by the coset table's c deltas:
    # c generates PB3 modulo F2 and the kernel, with c_period r
    labels = {lab: n for n, lab in enumerate(TRANSVERSAL_LABELS)}
    gens = []
    for i in range(2):
        images = [0] * (r * len(labels))
        for lab, n in labels.items():
            _f2, dc, new = COSET_TABLE[lab, (i, 1)]
            for j in range(r):
                images[j * len(labels) + n] = (j + dc) % r * len(labels) + labels[new]
        gens.append(Permutation(tuple(images)))
    return new_nfi(tuple(gens), label=f"c-shift-{r}")


def test_settled_criterion_on_the_grid(pb3, catalog4, cat09):
    # every m, unit or not, and every F in F2/N_F2, commutator or not, whose
    # T images satisfy the braid relation and send c to c^k: the criterion
    # against kernel equality by paired closure, with c_period 1 and 3
    shift3 = c_shift_subgroup(3)
    assert shift3.data.c_period == 3
    seen = set()
    for N in [pb3, *catalog4, cat09, shift3, nfi_intersect([shift3, catalog4[2]])]:
        d = N.data
        g1, g2 = N.hom.images
        for m in range(d.n_ord):
            k = 2 * m + 1
            for F in d.f2_quotient.elements_in_order:
                images = (g1**k, F.inverse() * g2**k * F)
                try:
                    hom = GenHom(TAG_B3, images)
                except BraidRelationError:
                    continue
                delta = images[0] * images[1] * images[0]
                if delta * delta != d.c_image**k:
                    continue
                settled = kernels_equal(hom, N.hom)
                s = GtShadow(N, m, EMPTY, F)
                assert (_settled_e_map(s, images[1]) is not None) == settled
                # the test writes nothing on the shadow
                assert s._source is None and s._e is None
                seen.add((settled, math.gcd(k, d.n_ord) == 1, d.c_period))
    assert {(False, False, 3), (False, True, 1), (True, True, 3)} <= seen


def test_source_invariants(catalog4):
    # build ker(T) directly from the T images, without the settled-object
    # shortcut, and compare against the target
    for N, s in all_shadows(catalog4):
        K = new_nfi(t_hom(s).images)
        assert K.data.n_ord == N.data.n_ord
        assert K.data.index_pb3 == N.data.index_pb3
        assert K.data.index_f2 == N.data.index_f2
        assert nfi_equal(K, N)
        assert shadow_source(s) is s.target


# ---------------------------------------------------------------------------
# composition and inversion

def test_compose_with_identities(catalog4):
    for N, s in all_shadows(catalog4):
        K = shadow_source(s)
        assert compose_shadows(s, identity_shadow(K)) == s
        assert compose_shadows(identity_shadow(N), s) == s


def test_compose_rejects_mismatched_ends(catalog4):
    with pytest.raises(SourceTargetMismatchError):
        compose_shadows(identity_shadow(catalog4[1]), identity_shadow(catalog4[2]))


def test_compose_ignores_choice_of_representative_word(catalog4):
    # replace the identity's empty word by a nonempty commutator word that is
    # trivial in the source quotient; the composite must not change
    for N, s in all_shadows(catalog4):
        K = shadow_source(s)
        g = K.evaluate_f2(COMM)
        h = COMM ** g.order()
        assert K.evaluate_f2(h).is_identity()
        fat_identity = GtShadow(K, 0, h, K.data.f2_quotient.identity)
        assert compose_shadows(s, fat_identity) == s


def test_element_composition_matches_bullet_monoid(pb3, catalog4, cat09, cat10):
    # every composable pair, cat09/cat10 cross-object ones included: the m
    # and f image of the word-level monoid law, and a word spelling f's image
    shadows = [s for N in [pb3, *catalog4, cat09, cat10] for s in enumerate_shadows(N)]
    cross = 0
    for s1, s2 in itertools.product(shadows, repeat=2):
        if not nfi_equal(shadow_source(s1), s2.target):
            continue
        got = compose_shadows(s1, s2)
        q = s1.target.data.f2_quotient
        m, f_word = bullet_monoid(s1.m, s1.f_word, s2.m, s2.f_word)
        assert (got.m, got.f_elt) == (m % s1.target.data.n_ord, q.evaluate(f_word))
        assert q.evaluate(got.f_word) == got.f_elt
        cross += s1.target is not s2.target
    assert cross > 0


def test_power_chain_keeps_words_short():
    # substituting words would grow f about 13-fold per composition; the
    # element law keeps the commutator subgroup's own representative
    N = catalog_search(5)[6]
    settled = [s for s in enumerate_shadows(N) if shadow_source(s) is N]
    s = max(settled, key=lambda t: len(t.f_word))
    powers = [identity_shadow(N)]
    for _ in range(200):
        powers.append(compose_shadows(s, powers[-1]))
    comm = N.data.f2_commutator
    for p in powers:
        assert p.f_word == comm.word_of(p.f_elt)
    for a in range(0, 201, 5):
        for b in range(0, 201 - a, 5):
            assert compose_shadows(powers[a], powers[b]) == powers[a + b]


def test_invert_round_trips(catalog4):
    for N, s in all_shadows(catalog4):
        sinv = invert_shadow(s)
        assert sinv.target.content_id == shadow_source(s).content_id
        assert compose_shadows(s, sinv) == identity_shadow(N)
        assert compose_shadows(sinv, s) == identity_shadow(sinv.target)


def test_invert_odd_part_formula():
    # C5 coset construction: n_ord 5, trivial commutator, all four unit
    # residues are shadows; the inverse of m=1 is m=3 because 3*7 = 21 = 1
    # mod 10
    c5 = Permutation((1, 2, 3, 4, 0))
    N5 = from_f2_quotient((c5, c5), label="mod5")
    assert N5.data.n_ord == 5
    assert sorted(s.m for s in enumerate_shadows(N5)) == [0, 1, 3, 4]
    s = GtShadow(N5, 1, EMPTY, N5.data.f2_quotient.identity)
    assert is_shadow(N5, 1, EMPTY)
    sinv = invert_shadow(s)
    assert sinv.m == 3
    assert (2 * s.m + 1) * (2 * sinv.m + 1) % (2 * N5.data.n_ord) == 1
    assert sinv.f_word.is_empty()


def test_invert_rejects_non_unit(catalog4):
    bogus = GtShadow(catalog4[2], 1, EMPTY, catalog4[2].data.f2_quotient.identity)
    with pytest.raises(ValueError):
        invert_shadow(bogus)


def test_shadow_equality_semantics(catalog4):
    N = catalog4[-1]
    shadows = enumerate_shadows(N)
    assert len(set(shadows)) == len(shadows)
    a = shadows[0]
    clone = GtShadow(N, a.m, a.f_word, a.f_elt)
    assert clone == a
    assert hash(clone) == hash(a)
    assert clone != identity_shadow(catalog4[0])


def test_settled_shadow_builds_its_e_map_once(monkeypatch, catalog4):
    # shadow_source builds E out of the target; inverting and composing
    # with the inverse reuse it instead of building it twice more
    N = catalog4[-1]
    a = next(t for t in enumerate_shadows(N) if t.m and not t.f_elt.is_identity())
    s = GtShadow(N, a.m, a.f_word, a.f_elt)
    calls = []

    def counting(shadow, source, t2):
        calls.append((shadow, source))
        return _e_map(shadow, source, t2)

    monkeypatch.setattr("braidshadow.shadows._e_map", counting)
    inverse = invert_shadow(s)
    assert compose_shadows(s, inverse) == identity_shadow(N)
    assert shadow_source(s) is N
    assert calls == [(s, N)]


def test_powers_are_the_k_th_powers(catalog7, cat09, cat10):
    # every m, unit or not; only the units are kept, one entry each.  The
    # c-shift subgroup has c_period 3, so (c^r)^k is not c^k there.
    shift3 = c_shift_subgroup(3)
    for N in [*catalog7, cat09, cat10, shift3]:
        d = N.data
        q = d.f2_quotient
        g1, g2 = N.hom.images
        for m in range(d.n_ord):
            k = 2 * m + 1
            p = _powers(N, m)
            assert (p.g1, p.g2, p.c) == (g1**k, g2**k, d.c_image**k), (N.label, m)
            assert (p.g1 * p.g1, p.g2 * p.g2) == (d.x_image**k, d.y_image**k), (N.label, m)
            assert p.cr == q.index_of(d.c_period_image**k), (N.label, m)
            assert p.x_table == q._right_table(d.x_image**k), (N.label, m)
        units = {m for m in range(d.n_ord) if math.gcd(2 * m + 1, d.n_ord) == 1}
        assert set(N._powers) == units, N.label
        assert all(_powers(N, m) is N._powers[m] for m in units)


def test_unsettled_source_reuses_the_checked_t(monkeypatch, cat09, cat10):
    # t_hom's GenHom becomes the source's homomorphism, so the braid
    # relation is checked once per source (a second GenHom per unsettled
    # source would make 18 for cat09's 12 shadows).  Fresh realizations,
    # so no memo answers early.
    built = []
    original = GenHom.__post_init__

    def counting(hom):
        built.append(hom)
        original(hom)

    monkeypatch.setattr(GenHom, "__post_init__", counting)
    for N in (cat09, cat10):
        N = new_nfi(N.hom.images, label=N.label)
        shadows = enumerate_shadows(N)
        unsettled = 0
        for s in shadows:
            built.clear()
            source = shadow_source(s)
            assert len(built) == 1, s
            if source is not N:
                unsettled += 1
                assert source.hom is built[0]
        assert (len(shadows), unsettled) == (12, 6), N.label


def test_source_inverts_f_once(monkeypatch, cat09):
    # T's image of sigma_2, F^-1 sigma_2^k F, is formed once per source and
    # the settledness test reads it off T; forming it again would invert F
    # a second time.  A fresh realization, so no memo answers early.
    N = new_nfi(cat09.hom.images, label=cat09.label)
    shadows = enumerate_shadows(N)
    inverted = []
    original = Permutation.inverse

    def counting(p):
        inverted.append(p)
        return original(p)

    monkeypatch.setattr(Permutation, "inverse", counting)
    for s in shadows:
        inverted.clear()
        shadow_source(s)
        assert sum(p is s.f_elt for p in inverted) == 1, s
    assert len(shadows) == 12


def test_inverting_reads_t_off_the_source(monkeypatch, cat09):
    # an unsettled source wraps T's checked GenHom, and the inverse of an
    # unsettled shadow has T = N.hom, so neither forms T again; a settled
    # inverse forms it once, for the E table its compose builds and its
    # invert reuses (6 calls).  A fresh realization, so no memo answers early.
    N = new_nfi(cat09.hom.images, label=cat09.label)
    shadows = enumerate_shadows(N)
    for s in shadows:
        shadow_source(s)
    calls = []

    def counting(s):
        calls.append(s)
        return t_hom(s)

    monkeypatch.setattr("braidshadow.shadows.t_hom", counting)
    inverses = [invert_shadow(s) for s in shadows]
    assert len(calls) == 0
    for s, t in zip(shadows, inverses):
        assert compose_shadows(s, t) == identity_shadow(N)
        assert compose_shadows(t, s) == identity_shadow(shadow_source(s))
        assert invert_shadow(t) == s
    assert len(calls) == 6


def test_e_table_reads_t_off_an_unsettled_source(catalog7, cat09, cat10):
    # the 24 unsettled shadows of these targets and their inverses: E read
    # off the source's homomorphism is E built from a fresh T
    targets = [*catalog7, cat09, cat10, nfi_intersect([cat09, cat10])]
    unsettled = [
        s for N in targets for s in enumerate_shadows(N) if shadow_source(s) is not N
    ]
    assert len(unsettled) == 24
    for s in unsettled:
        t = invert_shadow(s)
        assert t_hom(t).images == s.target.hom.images
        for u in (s, t):
            source = shadow_source(u)
            assert _e_table(u) == _e_map(u, source, t_hom(u).images[1])


def test_e_table_serves_every_realization_of_the_source(catalog7, cat09, cat10):
    # the source's quotients are enumerated alike in every realization, so
    # E built out of a block sum of the source is the table the shadow keeps
    targets = [*catalog7, cat09, cat10, nfi_intersect([cat09, cat10])]
    shadows = [s for N in targets for s in enumerate_shadows(N)]
    assert len(shadows) == 301
    twins = {}
    for s in shadows:
        K = shadow_source(s)
        if K not in twins:
            twins[K] = nfi_intersect([K, K])
        assert _e_map(s, twins[K], t_hom(s).images[1]) == _e_table(s), s


def test_e_table_is_built_once_per_shadow(monkeypatch, cat09):
    # fresh realizations, so no memo answers early.  The round trips build
    # one table per shadow and per inverse, except the 6 that settled
    # shadows kept from shadow_source (the parent built 36).  Composing
    # every composable pair of the component reads the unsettled sources'
    # homomorphisms and forms no T (the parent formed 132, one per compose
    # that met another realization of the source, and built 144 tables).
    counts = {"t_hom": 0, "_e_map": 0}

    def counted(name, original):
        def counting(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(f"braidshadow.shadows.{name}", counting)

    N = new_nfi(cat09.hom.images, label=cat09.label)
    shadows = enumerate_shadows(N)
    for s in shadows:
        shadow_source(s)
    counted("t_hom", t_hom)
    counted("_e_map", _e_map)
    for s in shadows:
        t = invert_shadow(s)
        assert compose_shadows(s, t) == identity_shadow(N)
        assert compose_shadows(t, s) == identity_shadow(shadow_source(s))
        assert invert_shadow(t) == s
    assert counts == {"t_hom": 6, "_e_map": 18}

    component = connected_component(new_nfi(cat09.hom.images, label=cat09.label))
    counts.update(t_hom=0, _e_map=0)
    morphisms = [(i, j, s) for (i, j), ss in component.morphisms.items() for s in ss]
    composed = 0
    for i, _, s1 in morphisms:
        keys = {s.key() for s in enumerate_shadows(s1.target)}
        for _, j, s2 in morphisms:
            if j == i:
                assert compose_shadows(s1, s2).key() in keys
                composed += 1
    assert composed == 288
    assert counts == {"t_hom": 0, "_e_map": 12}


def _fresh_targets(catalog4, cat09, cat10):
    return [new_nfi(N.hom.images, label=N.label) for N in (*catalog4, cat09, cat10)]


def test_e_table_forms_no_t(monkeypatch, catalog4, cat09, cat10):
    # shadow_source is the one place T is formed: once the sources of the
    # shadows, their inverses and the identity shadows at both ends are
    # resolved, every E table is built with t_hom unavailable.  Fresh
    # realizations, so no memo answers early.
    shadows = []
    for N in _fresh_targets(catalog4, cat09, cat10):
        for s in enumerate_shadows(N):
            K = shadow_source(s)
            shadows += [s, invert_shadow(s), identity_shadow(N), identity_shadow(K)]
    assert len(shadows) == 4 * 37
    for s in shadows:
        shadow_source(s)

    def forbidden(s):
        raise AssertionError(f"T formed for {s!r}")

    monkeypatch.setattr("braidshadow.shadows.t_hom", forbidden)
    for s in shadows:
        assert sorted(_e_table(s)) == list(range(s.target.data.f2_quotient.order)), s


def test_e_map_returns_only_bijections(catalog4, cat09, cat10):
    # every m and every F: where hom_into finds E well defined but not a
    # bijection (75 grid points), _e_map returns None; elsewhere it returns
    # hom_into's answer
    not_onto = 0
    for N in _fresh_targets(catalog4, cat09, cat10):
        q = N.data.f2_quotient
        for m in range(N.data.n_ord):
            pw = _powers(N, m)
            for F in q.elements_in_order:
                t2 = F.inverse() * pw.g2 * F
                walked = q.hom_into(q, (pw.x_table, t2 * t2))
                e = _e_map(GtShadow(N, m, q.word_of(F), F), N, t2)
                if walked is not None and len(set(walked)) < q.order:
                    not_onto += 1
                    assert e is None, (N.label, m, F)
                else:
                    assert e == walked, (N.label, m, F)
    assert not_onto == 75


def _invariant_targets(catalog4, catalog7, cat09, cat10):
    meets = [nfi_intersect([a, b]) for a, b in itertools.combinations(catalog4[1:], 2)]
    return [*catalog7, cat09, cat10, *meets]


def test_every_unit_m_has_the_same_number_of_shadows(catalog4, catalog7, cat09, cat10):
    # the cyclotomic character of G_Q is onto, so every unit m has a
    # shadow; m -> 2m+1 is multiplicative under the monoid law, so on an
    # isolated N the fibres of GT(N) -> (Z/N_ord)^x are cosets of one
    # kernel.  The non-isolated targets here show equal fibres too.
    targets = _invariant_targets(catalog4, catalog7, cat09, cat10)
    assert len(targets) == 23
    for N in targets:
        n = N.data.n_ord
        units = [m for m in range(n) if math.gcd(2 * m + 1, n) == 1]
        counts = {m: 0 for m in units}
        for s in enumerate_shadows(N):
            counts[s.m] += 1
        assert len(set(counts.values())) == 1 and counts[0] > 0, (N.label, counts)


def test_conjugation_and_the_identity_are_shadows(catalog4, catalog7, cat09, cat10):
    # complex conjugation gives (m = -1, f = 1), and the identity (0, 1)
    for N in _invariant_targets(catalog4, catalog7, cat09, cat10):
        d = N.data
        keys = {s.key() for s in enumerate_shadows(N)}
        for m in (d.n_ord - 1, 0):
            assert is_shadow(N, m, EMPTY), (N.label, m)
            assert (m, d.f2_quotient.identity) in keys, (N.label, m)


def test_unsettled_source_label_truncates_a_long_f(cat09):
    # f times [x^(13n), y], n = N_ord, which is trivial mod N_F2: the same
    # shadow, spelled with more than 24 letters
    N = new_nfi(cat09.hom.images, label=cat09.label)
    s = next(t for t in enumerate_shadows(N) if shadow_source(t) is not N)
    w = X ** (13 * N.data.n_ord)
    f_word = s.f_word * w * Y * w.inv() * Y.inv()
    assert N.data.f2_quotient.evaluate(f_word) == s.f_elt
    text = word_to_text(f_word)
    assert len(text) > 24
    source = shadow_source(GtShadow(N, s.m, f_word, s.f_elt))
    assert source.label == f"cat09<-({s.m},{text[:21]}...)"
    assert nfi_equal(source, shadow_source(s))


def counting_right_tables(monkeypatch):
    """Record the group of each right table built, not read off a row."""
    original = GeneratedGroup._right_table
    built = []

    def counting(group, p):
        table = original(group, p)
        if all(table is not row for row in group.right):
            built.append(group)
        return table

    monkeypatch.setattr(GeneratedGroup, "_right_table", counting)
    return built


def test_enumeration_builds_one_table_per_tested_f(monkeypatch):
    # x's table is F2/N_F2's own row; only F^-1 y F's is built, and not
    # even that one when it is a generator (the parent built 2 per F: 38)
    tested = []

    def recording(N, big_f):
        tested.append((N, big_f))
        return _t_f2_onto(N, big_f)

    monkeypatch.setattr("braidshadow.shadows._t_f2_onto", recording)
    kernels = catalog_search(5)
    for N in kernels:
        N.data  # the commutator's tables are pinned on their own, below
    built = counting_right_tables(monkeypatch)
    for N in kernels:
        enumerate_shadows(N)
    assert len(tested) == 19
    quotients = [N.data.f2_quotient for N in kernels]
    assert all(any(group is q for q in quotients) for group in built)
    rows = sum(
        F.inverse() * N.data.y_image * F in N.data.f2_quotient.generators for N, F in tested
    )
    assert len(built) == len(tested) - rows == 11


def test_quotient_data_builds_one_table_per_non_generator_commutator(monkeypatch):
    # the reach that counts |[G,G]| multiplies by [x,y] on the right: a
    # row of F2/N_F2 when [x,y] is a generator, one table built otherwise
    kernels = catalog_search(5)
    built = counting_right_tables(monkeypatch)
    quotients = [N.data.f2_quotient for N in kernels]
    expected = []
    for q in quotients:
        x, y = q.generators
        if x * y * x.inverse() * y.inverse() not in q.generators:
            expected.append(q)
    assert [id(q) for q in built] == [id(q) for q in expected]
    assert len(built) == 6


def test_component_reads_each_power_once(monkeypatch):
    # cat06 of catalog_search(5): 20 settled shadows over 4 distinct m; the
    # memo fills once per m, and F2/N_F2 builds one table per shadow
    # (F^-1 y^k F) plus one per m (x^k), none for a generator (the parent
    # built 2 per shadow: 40)
    N = catalog_search(5)[6]
    shadows = enumerate_shadows(N)
    assert len(shadows) == 20
    fills = []

    class CountingDict(dict):
        def __setitem__(self, m, p):
            fills.append(m)
            super().__setitem__(m, p)

    N._powers = CountingDict()
    built = counting_right_tables(monkeypatch)
    assert connected_component(N).objects == [N]
    ms = sorted({s.m for s in shadows})
    assert fills == ms == [0, 1, 3, 4]
    q = N.data.f2_quotient
    gens = set(q.generators)
    t2 = [s.f_elt.inverse() * N._powers[s.m].g2 * s.f_elt for s in shadows]
    ex = [N._powers[m].g1 * N._powers[m].g1 for m in ms]
    expected = sum(t * t not in gens for t in t2) + sum(x not in gens for x in ex)
    assert all(group is q for group in built)
    assert len(built) == expected == 22


def rows_digest(N):
    d = N.data
    rows = [d.b3_quotient.right, d.f2_quotient.right]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_groupoid_operations_leave_the_generator_rows_alone(cat09, cat10):
    # callers get right[g] itself for a generator's table; no operation
    # may write to it.  Fresh realizations, so no memo answers early.
    for N in (cat09, cat10):
        N = new_nfi(N.hom.images, label=N.label)
        before = rows_digest(N)
        shadows = enumerate_shadows(N)
        connected_component(N)
        for s in shadows:
            inverse = invert_shadow(s)
            assert compose_shadows(s, inverse) == identity_shadow(N)
        assert rows_digest(N) == before, N.label
