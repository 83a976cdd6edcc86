import itertools

import pytest

from braidshadow import subgroups, words
from braidshadow.errors import CandidateCapExceeded, NotContainedError
from braidshadow.groupoid import (
    connected_component,
    diamond,
    genuine_to_depth,
    is_isolated,
    main_line_limit,
    reduce_shadow,
    survives,
)
from braidshadow.perms import GeneratedGroup
from braidshadow.shadows import (
    GtShadow,
    compose_shadows,
    enumerate_shadows,
    identity_shadow,
    invert_shadow,
    shadow_source,
)
from braidshadow.subgroups import new_nfi, nfi_contains, nfi_equal
from braidshadow.words import TAG_F2, X, Y, bullet_monoid, empty_word

EMPTY = empty_word(TAG_F2)


# ---------------------------------------------------------------------------
# components

def test_component_of_the_top_object(pb3):
    report = connected_component(pb3)
    assert report.objects == [pb3]
    assert report.isolated
    assert list(report.morphisms) == [(0, 0)]
    assert report.morphisms[(0, 0)] == [identity_shadow(pb3)]
    assert nfi_equal(report.diamond, pb3)


def test_catalog_components_are_singletons(catalog4):
    for N in catalog4:
        report = connected_component(N)
        assert report.isolated
        assert len(report.objects) == 1
        assert report.morphisms[(0, 0)] == enumerate_shadows(N)
        assert is_isolated(N)


def test_morphisms_closed_under_inversion(catalog4):
    for N in catalog4:
        gt = enumerate_shadows(N)
        assert {invert_shadow(s) for s in gt} == set(gt)


def test_morphisms_closed_under_composition(catalog4):
    # on an isolated object GT(N) is a group under the bullet law
    for N in (catalog4[2], catalog4[-1]):
        gt = enumerate_shadows(N)
        for a, b in itertools.product(gt, repeat=2):
            assert compose_shadows(a, b) in gt


def test_diamond_of_an_isolated_object_is_itself(pb3, catalog4):
    for N in [pb3, *catalog4]:
        assert diamond(N) is N


def test_first_non_isolated_component(cat09, cat10):
    report = connected_component(cat09)
    assert not report.isolated
    assert report.objects[0] is cat09
    assert len(report.objects) == 2
    assert nfi_equal(report.objects[1], cat10)
    assert sorted(report.morphisms) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(len(v) == 6 for v in report.morphisms.values())
    assert not is_isolated(cat09)


def test_component_builds_quotient_data_only_for_new_objects(monkeypatch, cat09):
    # a fresh realization, so that no quotient data is built before the count
    fresh = new_nfi(cat09.hom.images, label="fresh09")
    built = []
    compute = subgroups._compute_quotient_data

    def counting(*args):
        built.append(args)
        return compute(*args)

    monkeypatch.setattr(subgroups, "_compute_quotient_data", counting)
    report = connected_component(fresh)
    assert len(report.objects) == 2
    assert len(built) == 2  # one per object, none per source compared


def test_diamond_of_a_two_object_component(cat09, cat10):
    D = diamond(cat09)
    assert D.degree == 20
    assert D.data.b3_quotient.order == 882
    assert len(enumerate_shadows(D)) == 72
    assert nfi_contains(D, cat09) and nfi_contains(D, cat10)
    assert is_isolated(D)


def test_unsettled_shadows_swap_the_two_objects(cat09, cat10):
    unsettled = [s for s in enumerate_shadows(cat09) if s.m == 2]
    assert len(unsettled) == 6
    for s in unsettled:
        source = shadow_source(s)
        assert source is not cat09
        assert nfi_equal(source, cat10)
        sinv = invert_shadow(s)
        assert sinv.target is source
        assert shadow_source(sinv) is cat09
        assert compose_shadows(s, sinv) == identity_shadow(cat09)
        assert compose_shadows(sinv, s) == identity_shadow(source)


def test_reduce_and_survive_from_the_diamond_into_both_objects(cat09, cat10):
    D = diamond(cat09)
    gt_d = enumerate_shadows(D)
    for X in (cat09, cat10):
        image = {reduce_shadow(t, X) for t in gt_d}
        assert image == set(enumerate_shadows(X))
        assert all(survives(r, D) for r in image)


# ---------------------------------------------------------------------------
# reduction

def test_reduce_to_own_target_is_identity_map(catalog4):
    for N in catalog4:
        for s in enumerate_shadows(N):
            assert reduce_shadow(s, N) == s


def test_reduce_to_top_collapses_everything(pb3, catalog4):
    for N in catalog4:
        for s in enumerate_shadows(N):
            assert reduce_shadow(s, pb3) == identity_shadow(pb3)


def test_reduce_requires_containment(catalog4):
    s = identity_shadow(catalog4[1])
    with pytest.raises(NotContainedError):
        reduce_shadow(s, catalog4[2])


def test_reduction_preserves_m_mod_coarser_order(catalog4):
    fine, coarse = catalog4[4], catalog4[2]
    assert nfi_contains(fine, coarse)
    for s in enumerate_shadows(fine):
        r = reduce_shadow(s, coarse)
        assert r.target is coarse
        assert r.m == s.m % coarse.data.n_ord


def test_reduction_matches_the_word_evaluation(pb3, catalog4, cat09, cat10):
    # the element read off B3/N -> B3/H is f's word evaluated in H
    objects = [pb3, *catalog4, cat09, cat10, diamond(cat09)]
    for N in objects:
        for s in enumerate_shadows(N):
            for H in objects:
                if not nfi_contains(N, H):
                    continue
                r = reduce_shadow(s, H)
                assert r.f_elt == H.data.f2_quotient.evaluate(s.f_word), (s, H.label)
                assert r.f_word is s.f_word
                assert r.m == s.m % H.data.n_ord


def test_reduction_functorial_along_a_chain(pb3, catalog4):
    fine, mid = catalog4[4], catalog4[2]
    for s in enumerate_shadows(fine):
        assert reduce_shadow(reduce_shadow(s, mid), pb3) == reduce_shadow(s, pb3)


def test_reduction_is_a_homomorphism(catalog4):
    fine, coarse = catalog4[4], catalog4[2]
    gt = enumerate_shadows(fine)
    for a, b in itertools.product(gt, repeat=2):
        left = reduce_shadow(compose_shadows(a, b), coarse)
        right = compose_shadows(reduce_shadow(a, coarse), reduce_shadow(b, coarse))
        assert left == right


# ---------------------------------------------------------------------------
# survival and genuineness

def test_everything_survives_into_itself(catalog4):
    for N in catalog4:
        for s in enumerate_shadows(N):
            assert survives(s, N)


def test_survival_from_the_finer_catalog_object(catalog4):
    fine, coarse = catalog4[4], catalog4[2]
    for s in enumerate_shadows(coarse):
        assert survives(s, fine)


def test_survival_requires_containment(catalog4):
    s = identity_shadow(catalog4[2])
    with pytest.raises(NotContainedError):
        survives(s, catalog4[1])


def test_identity_is_never_fake(pb3, catalog4):
    verdict = genuine_to_depth(identity_shadow(pb3), catalog4)
    assert verdict.kind == "not_fake_to_depth"
    assert verdict.witness is None
    # every catalog object sits below the top one, so all were applicable
    assert [n.label for n in verdict.checked] == [n.label for n in catalog4]


def test_real_shadows_are_not_fake_at_catalog_depth(catalog4):
    for s in enumerate_shadows(catalog4[2]):
        verdict = genuine_to_depth(s, catalog4)
        assert verdict.kind == "not_fake_to_depth"
        # applicable entries: cat02 itself and the finer cat04
        assert [n.label for n in verdict.checked] == ["cat02", "cat04"]


def test_fake_certificate_is_independently_checkable(catalog4):
    coarse = catalog4[2]
    # m=1 is not even a unit mod 3, so this pair is no shadow at all; the
    # depth search must expose it at the first applicable entry
    bogus = GtShadow(coarse, 1, EMPTY, coarse.data.f2_quotient.identity)
    verdict = genuine_to_depth(bogus, catalog4)
    assert verdict.kind == "fake"
    assert verdict.witness.label == "cat02"
    assert verdict.checked[-1] is verdict.witness
    assert bogus not in verdict.reduce_image
    # replay the certificate from scratch
    replay = [
        reduce_shadow(t, bogus.target) for t in enumerate_shadows(verdict.witness)
    ]
    assert replay == verdict.reduce_image
    assert bogus not in replay


def test_survival_and_genuineness_walk_once_per_pair(monkeypatch, pb3, catalog4, cat09, cat10):
    # the B3/N -> B3/H walk is both the containment test and the reduction
    # map: one hom_into per pair, never one per reduced shadow
    catalog = [pb3, *catalog4, cat09, cat10]
    for N in catalog:
        enumerate_shadows(N)
    below = [[N for N in catalog if nfi_contains(N, H)] for H in catalog]
    calls = []
    original = GeneratedGroup.hom_into

    def counting(self, other, images=None):
        calls.append((self, other))
        return original(self, other, images)

    monkeypatch.setattr(GeneratedGroup, "hom_into", counting)
    for H, finer in zip(catalog, below):
        for s in enumerate_shadows(H):
            for N in finer:
                calls.clear()
                assert survives(s, N)
                assert calls == [(N.b3_quotient, H.b3_quotient)]
            calls.clear()
            verdict = genuine_to_depth(s, catalog)
            assert verdict.kind == "not_fake_to_depth"
            assert verdict.checked == finer
            assert calls == [(N.b3_quotient, H.b3_quotient) for N in catalog]


def test_genuineness_walks_only_entries_of_divisible_order(monkeypatch, pb3, catalog4, cat09, cat10):
    # N <= H needs |B3/H| to divide |B3/N| (Lagrange), so hom_into refuses
    # the other entries before it walks; |B3/cat04| = 72
    catalog = [pb3, *catalog4, cat09, cat10]
    for N in catalog:
        enumerate_shadows(N)
    H = catalog4[4]
    assert H.b3_quotient.order == 72
    walked = []
    original = GeneratedGroup._walk

    def counting(self, tables, start=0):
        walked.append(self)
        return original(self, tables, start)

    expected = [N.b3_quotient for N in catalog if N.b3_quotient.order % 72 == 0]
    assert len(expected) < len(catalog)
    monkeypatch.setattr(GeneratedGroup, "_walk", counting)
    for s in enumerate_shadows(H):
        walked.clear()
        assert genuine_to_depth(s, catalog).kind == "not_fake_to_depth"
        assert walked == expected


def test_groupoid_operations_substitute_no_words(monkeypatch, pb3, cat09, cat10):
    def refuse(*args):
        raise AssertionError("word substitution reached")

    monkeypatch.setattr(words, "apply_endo", refuse)
    with pytest.raises(AssertionError):
        bullet_monoid(1, X * Y * X.inv() * Y.inv(), 1, EMPTY)
    for N in (cat09, cat10):
        for s in enumerate_shadows(N):
            sinv = invert_shadow(s)
            assert compose_shadows(s, sinv) == identity_shadow(N)
            assert compose_shadows(sinv, s) == identity_shadow(sinv.target)
            r = reduce_shadow(s, pb3)
            assert survives(r, N)
            assert genuine_to_depth(s, [cat09, cat10]).kind == "not_fake_to_depth"


# ---------------------------------------------------------------------------
# main line diagrams

def test_main_line_singleton(pb3):
    diagram, limit = main_line_limit([pb3])
    assert diagram.poset_objects == [pb3]
    assert diagram.edges == {}
    assert limit == [(identity_shadow(pb3),)]


def test_main_line_two_objects(pb3, catalog4):
    fine = catalog4[4]
    diagram, limit = main_line_limit([fine, pb3])
    # sorted by coarseness: the top object first
    assert diagram.poset_objects == [pb3, fine]
    assert set(diagram.edges) == {(1, 0)}
    assert len(limit) == len(enumerate_shadows(fine))
    assert {t[1] for t in limit} == set(enumerate_shadows(fine))


def test_main_line_three_objects_against_product_filter(pb3, catalog4):
    chain = [pb3, catalog4[2], catalog4[4]]
    diagram, limit = main_line_limit(chain)
    assert set(diagram.edges) == {(1, 0), (2, 0), (2, 1)}

    groups = [diagram.groups[i] for i in range(3)]
    brute = [
        combo
        for combo in itertools.product(*groups)
        if all(
            reduce_shadow(combo[i], diagram.poset_objects[j]) == combo[j]
            for (i, j) in diagram.edges
        )
    ]
    assert limit == brute
    assert len(limit) == 6


def test_main_line_input_order_is_irrelevant(pb3, catalog4):
    a = main_line_limit([pb3, catalog4[2], catalog4[4]])
    b = main_line_limit([catalog4[4], pb3, catalog4[2]])
    assert [n.label for n in a[0].poset_objects] == [n.label for n in b[0].poset_objects]
    assert a[1] == b[1]


def test_main_line_level_over_the_cap_is_refused(pb3, catalog4):
    chain = [pb3, catalog4[2], catalog4[4]]
    with pytest.raises(CandidateCapExceeded) as exc:
        main_line_limit(chain, max_candidates=11)
    # cat04's level: two kept prefixes times its six shadows
    assert (exc.value.count, exc.value.cap) == (12, 11)
    _, limit = main_line_limit(chain, max_candidates=12)
    assert limit == main_line_limit(chain)[1]
    assert len(limit) == 6


def test_main_line_limit_is_a_group(pb3, catalog4):
    _, limit = main_line_limit([pb3, catalog4[2], catalog4[4]])
    identity = tuple(
        identity_shadow(N) for N in (pb3, catalog4[2], catalog4[4])
    )
    assert identity in limit
    limit_set = set(limit)
    for u, v in itertools.product(limit, repeat=2):
        prod = tuple(compose_shadows(a, b) for a, b in zip(u, v))
        assert prod in limit_set
    for u in limit:
        assert tuple(invert_shadow(a) for a in u) in limit_set
