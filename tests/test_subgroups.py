import gc
import hashlib
import itertools
import math
import random
import weakref

import pytest

from braidshadow import perms, subgroups
from braidshadow.errors import (
    BraidRelationError,
    GroupSizeCapExceeded,
    KernelNotInPb3Error,
)
from braidshadow.perms import (
    GenHom,
    Permutation,
    block_sum,
    kernel_contained,
    kernels_equal,
)
from braidshadow.shadows import enumerate_shadows
from braidshadow.subgroups import (
    NfiSubgroup,
    _braid_pairs,
    _pair_class,
    catalog_search,
    content_id,
    from_f2_quotient,
    new_nfi,
    nfi_contains,
    nfi_equal,
    nfi_intersect,
    pb3_subgroup,
    rho,
)
from braidshadow.words import (
    TAG_B3,
    TAG_F2,
    X,
    Y,
    b3_normal_form,
    random_word,
    word_from_text,
    word_to_text,
)


def test_rho_values():
    r = rho()
    assert r.images == (Permutation((1, 0, 2)), Permutation((0, 2, 1)))
    assert r.domain_tag == "B3"


def test_pb3_top_object(pb3):
    d = pb3.data
    assert d.n_ord == 1
    assert d.index_pb3 == 1
    assert d.index_f2 == 1
    assert d.b3_quotient.order == 6
    assert d.x_image.is_identity()
    assert d.c_image.is_identity()
    assert d.f2_commutator.order == 1


def test_new_nfi_rejects_bad_images():
    with pytest.raises(BraidRelationError):
        new_nfi((Permutation((1, 0, 2)), Permutation((1, 2, 0))))
    # sigma_1, sigma_2 -> same transposition: sigma_1 sigma_2^-1 is killed
    # but is not a pure braid
    with pytest.raises(KernelNotInPb3Error):
        new_nfi((Permutation((1, 0)), Permutation((1, 0))))


def test_new_nfi_auto_label():
    N = new_nfi(rho().images)
    assert N.label == f"N-{N.content_id[:8]}"
    assert new_nfi(rho().images, label="top").label == "top"


def test_content_id_tracks_realization():
    a = rho().images
    assert content_id(a) == content_id(a)
    b = (block_sum(Permutation((0,)), a[0]), block_sum(Permutation((0,)), a[1]))
    assert content_id(a) != content_id(b)


def test_quotient_structure_invariants(pb3, catalog4):
    for N in [pb3, *catalog4]:
        d = N.data
        assert d.b3_quotient.order == 6 * d.index_pb3
        assert d.index_f2 == d.f2_quotient.order
        orders = (d.x_image.order(), d.y_image.order(), d.c_image.order())
        assert all(d.n_ord % k == 0 for k in orders)
        assert math.lcm(*orders) == d.n_ord
        assert d.index_pb3 % d.index_f2 == 0
        assert d.delta_image * d.delta_image == d.c_image
        # index_pb3 is read off |B3/N|; close PB3/N here to check it
        P = perms.generate_group([d.x_image, d.y_image, d.c_image])
        assert P.order == d.index_pb3
        for g in d.f2_quotient.elements_in_order:
            assert g in P
        for g in d.b3_quotient.generators:
            assert d.c_image * g == g * d.c_image
        assert d.index_f2 % d.f2_commutator.order == 0


def test_equal_realizations_compare_equal():
    n1 = new_nfi(rho().images, label="one")
    n2 = new_nfi(rho().images, label="two")
    assert n1 == n2  # realization equality
    assert hash(n1) == hash(n2)


def test_dropped_subgroup_frees_its_quotient_data(catalog4):
    pad = Permutation.identity(3)
    g1, g2 = catalog4[-1].hom.images
    N = new_nfi((block_sum(pad, g1), block_sum(pad, g2)), label="dropped")
    enumerate_shadows(N)  # the shadow memo points back at N
    data = weakref.ref(N.data)
    del N
    gc.collect()
    assert data() is None


def test_poset_relations(pb3, catalog4):
    for N in catalog4:
        assert nfi_contains(N, pb3)
    # cat00 comes from the trivial pair: same kernel as pb3, different realization
    assert nfi_equal(catalog4[0], pb3)
    assert catalog4[0].content_id != pb3.content_id
    assert catalog4[0] != pb3
    big = catalog4[-1]
    assert not nfi_equal(big, pb3)
    assert not nfi_contains(pb3, big)


def test_intersection(pb3, catalog4):
    a, b = catalog4[1], catalog4[-1]
    meet = nfi_intersect([a, b])
    assert meet.label == f"({a.label} & {b.label})"
    assert nfi_contains(meet, a)
    assert nfi_contains(meet, b)
    assert nfi_equal(nfi_intersect([a, a]), a)
    assert nfi_equal(nfi_intersect([a, pb3]), a)
    with pytest.raises(ValueError):
        nfi_intersect([])


def test_from_trivial_f2_quotient_is_pb3(pb3):
    one = Permutation((0,))
    N = from_f2_quotient((one, one))
    assert nfi_equal(N, pb3)
    assert N.label.startswith("core-")


def test_from_f2_quotient_s2():
    swap = Permutation((1, 0))
    psi = GenHom(TAG_F2, (swap, swap))
    N = from_f2_quotient((swap, swap), label="mod2")
    # the construction's contract: N_F2 lands inside ker(psi), and c dies
    assert kernel_contained(N.f2_hom(), psi)
    assert N.data.c_image.is_identity()
    # x itself is not killed, so the containment is strict
    assert not N.evaluate_f2(X).is_identity()
    assert N.evaluate_f2(X * X).is_identity() == psi.evaluate(X * X).is_identity()


def test_from_f2_quotient_word_consistency():
    # psi factors through the core subgroup: equal words in F2/N_F2 have
    # equal psi-values
    c3 = Permutation((1, 2, 0))
    psi = GenHom(TAG_F2, (c3, c3 * c3))
    N = from_f2_quotient((c3, c3 * c3))
    seen = {}
    for text in ("", "x", "y", "xy", "xY", "xxx", "yyx", "XYxy"):
        w = word_from_text(text, TAG_F2)
        key = N.evaluate_f2(w)
        val = psi.evaluate(w)
        assert seen.setdefault(key, val) == val


def test_normal_forms_and_cores_are_frozen():
    # the coset table serves both b3_normal_form and from_f2_quotient: one
    # sha256 over the normal forms of 2,000 seeded braid words of length
    # 0..60 and the cores of all 36 pairs of S3 images, frozen from the
    # implementation that pushed negative letters through conjugation maps
    rng = random.Random(20240613)
    digest = hashlib.sha256()
    for _ in range(2000):
        nf = b3_normal_form(random_word(rng, TAG_B3, 60))
        digest.update(f"{word_to_text(nf.f2_part)} {nf.c_exponent} {nf.coset_index}\n".encode())
    s3 = [Permutation(p) for p in itertools.permutations(range(3))]
    cores = [from_f2_quotient(pair).content_id for pair in itertools.product(s3, repeat=2)]
    for cid in cores:
        digest.update(f"{cid}\n".encode())
    assert len(set(cores)) == 11
    assert digest.hexdigest() == (
        "14bde1a9771c4a091289f05dd15fc6cdf81540400a5d5ad334fc6a8f453ca8a0"
    )


# ---------------------------------------------------------------------------
# catalog search

def test_catalog_regression(catalog4):
    rows = [
        (N.label, N.degree, N.data.index_pb3, N.data.index_f2, N.data.n_ord)
        for N in catalog4
    ]
    assert rows == [
        ("cat00", 4, 1, 1, 1),
        ("cat01", 7, 2, 2, 2),
        ("cat02", 6, 3, 3, 3),
        ("cat03", 7, 4, 4, 2),
        ("cat04", 7, 12, 12, 3),
    ]


def test_catalog_entries_are_distinct_kernels(catalog4):
    for a, b in itertools.combinations(catalog4, 2):
        assert not nfi_equal(a, b)


def test_catalog_bounds():
    with pytest.raises(ValueError):
        catalog_search(0)
    with pytest.raises(ValueError):
        catalog_search(7)


def test_catalog_thread_count_is_invisible():
    seq = catalog_search(3, threads=1)
    par = catalog_search(3, threads=2)
    assert [n.content_id for n in seq] == [n.content_id for n in par]
    assert [n.label for n in seq] == [n.label for n in par]


def _brute_braid_pairs(degree):
    # every (p, q) in S_degree^2 with p q p = q p q by the product test, in
    # lexicographic order; independent of _braid_pairs
    sym = [Permutation(t) for t in itertools.permutations(range(degree))]
    return [
        (p, q) for p, q in itertools.product(sym, repeat=2) if p * q * p == q * p * q
    ]


def test_catalog_three_is_complete():
    # independent scan: every braid pair on <= 3 strands, no cycle-type
    # shortcut, must land on a catalog kernel
    cat3 = catalog_search(3)
    assert len(cat3) == 2
    r1, r2 = rho().images
    found = 0
    for degree in (1, 2, 3):
        for p, q in _brute_braid_pairs(degree):
            found += 1
            N = new_nfi((block_sum(p, r1), block_sum(q, r2)))
            assert any(nfi_equal(N, entry) for entry in cat3)
    assert found > len(cat3)


def test_braid_pairs_match_the_product_test():
    # the scan yields, in order, the product-test pairs whose p is the first
    # permutation of its cycle type, and it loses no relabelling class
    for degree in range(1, 6):
        first_of_type = {}
        for t in itertools.permutations(range(degree)):
            p = Permutation(t)
            first_of_type.setdefault(tuple(sorted(p.cycle_lengths())), p)
        least = set(first_of_type.values())
        every = _brute_braid_pairs(degree)
        got = list(_braid_pairs(degree))
        assert got == [(p, q) for p, q in every if p in least]
        assert {_pair_class(p, q) for p, q in every} == {
            _pair_class(p, q) for p, q in got
        }


def _every_candidate(max_degree):
    # each braid pair adjoined to rho, with no relabelling-class skip
    r1, r2 = rho().images
    for degree in range(1, max_degree + 1):
        for p, q in _brute_braid_pairs(degree):
            yield p, q, new_nfi((block_sum(p, r1), block_sum(q, r2)))


def test_catalog_class_skip_is_exact(catalog4):
    buckets, kept = {}, []
    for _, _, cand in _every_candidate(4):
        d = cand.data
        bucket = buckets.setdefault((d.index_pb3, d.n_ord, d.index_f2), [])
        if not any(nfi_equal(cand, existing) for existing in bucket):
            bucket.append(cand)
            kept.append(cand)
    kept.sort(key=lambda s: (s.data.index_pb3, s.content_id))
    assert [N.content_id for N in kept] == [N.content_id for N in catalog4]


def test_pairs_sharing_a_class_share_a_kernel():
    first, pairs = {}, 0
    for p, q, cand in _every_candidate(4):
        pairs += 1
        assert nfi_equal(cand, first.setdefault(_pair_class(p, q), cand))
    assert len(first) < pairs


def test_pair_class_ignores_relabelling():
    rng = random.Random(20240)
    for degree in range(1, 5):
        for p, q in _brute_braid_pairs(degree):
            key = _pair_class(p, q)
            for _ in range(3):
                s = Permutation(tuple(rng.sample(range(degree), degree)))
                t = s.inverse()
                assert _pair_class(t * p * s, t * q * s) == key


def test_catalog_degree_six_adds_no_kernel():
    def rows(catalog):
        return [(N.degree, N.data.index_pb3, N.content_id) for N in catalog]

    assert rows(catalog_search(6)) == rows(catalog_search(5))


def test_catalog_matches_the_same_type_grid_at_degree_six():
    # the scan of every same-cycle-type pair ordered by p, written out here,
    # with the relabelling-class skip and the kernel dedupe
    r1, r2 = rho().images
    kept, seen = [], set()
    for degree in range(1, 7):
        sym = [Permutation(t) for t in itertools.permutations(range(degree))]
        by_type = {}
        for p in sym:
            by_type.setdefault(tuple(sorted(p.cycle_lengths())), []).append(p)
        for p in sym:
            a = p.images
            for q in by_type[tuple(sorted(p.cycle_lengths()))]:
                b = q.images
                if any(a[b[a[i]]] != b[a[b[i]]] for i in range(degree)):
                    continue  # p q p != q p q
                key = _pair_class(p, q)
                if key in seen:
                    continue
                seen.add(key)
                cand = new_nfi((block_sum(p, r1), block_sum(q, r2)))
                if not any(nfi_equal(cand, N) for N in kept):
                    kept.append(cand)
    kept.sort(key=lambda N: (N.b3_quotient.order, N.content_id))
    assert [N.content_id for N in kept] == [N.content_id for N in catalog_search(6)]


def test_catalog_degree_seven_is_frozen(cat09, cat10):
    # content ids of catalog_search(7, degree_limit=7) as the scan of every
    # same-type pair found them
    cat7 = catalog_search(7, degree_limit=7)
    assert [N.content_id for N in cat7] == [
        "61ec01df5cb7793c", "20aa53948e46f3e5", "6bb3f6f19e9c4905",
        "d7b31dcf039538fc", "c583f54b16550d45", "b08d8463f0ab8898",
        "cabf674fc59c0445", "0715248457b02fe6", "198112c66f20c7ce",
        "d50f0010ebc131a6", "e8ed3ec71cdcae32", "a04f86807e4664dd",
        "6fd41d4f72e17a79", "8e0780a58b21ece8", "fa02a77bb61a3b35",
    ]
    assert cat7[9].hom.images == cat09.hom.images
    assert cat7[10].hom.images == cat10.hom.images


def test_kernel_containment_is_capped_by_the_first_image():
    # ker(rho) = PB3 is not inside ker(cat06): the paired closure passes
    # |im rho| = 6 and stops, long before cat06's 360-element image would
    # pass the size cap.  The cap still guards the first image itself.
    cat06 = catalog_search(5)[6]
    assert cat06.data.b3_quotient.order == 360
    assert not kernel_contained(rho(), cat06.hom, max_size=100)
    assert not kernels_equal(rho(), cat06.hom, max_size=100)
    with pytest.raises(GroupSizeCapExceeded):
        kernel_contained(cat06.hom, rho(), max_size=100)


def test_table_checks_match_the_paired_closure(pb3, cat09, cat10):
    # nfi_contains and nfi_equal work on the quotients' multiplication
    # tables; the paired-image closure is the reference
    pool = [pb3, *catalog_search(5), cat09, cat10, nfi_intersect([cat09, cat10])]
    contains, equal = set(), set()
    for A, B in itertools.product(pool, repeat=2):
        got = nfi_contains(A, B)
        assert got == kernel_contained(A.hom, B.hom), (A, B)
        contains.add(got)
        got = nfi_equal(A, B)
        assert got == kernels_equal(A.hom, B.hom), (A, B)
        equal.add(got)
    assert contains == equal == {True, False}


def test_pb3_check_matches_the_paired_closure(cat09):
    inside = cat09.hom
    assert kernel_contained(inside, rho())
    assert new_nfi(inside.images) == cat09
    swap = Permutation((1, 0))
    outside = GenHom("B3", (swap, swap))
    assert not kernel_contained(outside, rho())
    with pytest.raises(KernelNotInPb3Error):
        new_nfi(outside.images)


def test_b3_quotient_is_enumerated_once(monkeypatch, pb3, catalog4):
    # across new_nfi, the quotient data and both kernel comparisons
    pad = Permutation((0,))
    images = tuple(block_sum(g, pad) for g in catalog4[-1].hom.images)
    calls = []
    original = perms.generate_group

    def counting(gens, *args, **kwargs):
        calls.append(tuple(gens))
        return original(gens, *args, **kwargs)

    monkeypatch.setattr(perms, "generate_group", counting)
    monkeypatch.setattr(subgroups, "generate_group", counting)
    N = new_nfi(images)
    N.data
    assert nfi_contains(N, pb3) and not nfi_equal(N, pb3)
    assert calls.count(images) == 1


def test_catalog_and_quotient_data_build_no_pb3_closure(monkeypatch):
    # the search enumerates only B3/N; .data adds F2/N_F2 and its commutator
    # closure, and |PB3/N| is read off |B3/N|
    tags = []
    original = perms.generate_group

    def counting(gens, *args, **kwargs):
        tags.append(kwargs.get("tag", args[0] if args else "GEN"))
        return original(gens, *args, **kwargs)

    monkeypatch.setattr(perms, "generate_group", counting)
    monkeypatch.setattr(subgroups, "generate_group", counting)
    entries = catalog_search(5)
    assert "F2" not in tags and "PB3" not in tags
    tags.clear()
    entries[-1].data
    assert tags.count("F2") == 2 and "PB3" not in tags


def test_b3_quotient_order_against_saturation_oracle(catalog4):
    # multiply the whole set by itself until it stops growing; no BFS, no
    # word table, just raw closure
    gens = list(catalog4[2].hom.images)
    current = set(gens) | {gens[0].inverse(), gens[1].inverse()}
    while True:
        grown = current | {a * b for a in current for b in current}
        if grown == current:
            break
        current = grown
    assert len(current) == catalog4[2].data.b3_quotient.order


def test_internal_consistency_guard_is_wired():
    # an NfiSubgroup built directly (not through new_nfi) with a kernel that
    # leaks outside PB3 is refused by the constructor itself
    swap = Permutation((1, 0))
    with pytest.raises(KernelNotInPb3Error):
        NfiSubgroup(GenHom("B3", (swap, swap)), label="bad")
