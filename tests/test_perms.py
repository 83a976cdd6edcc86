import hashlib
import itertools

import hypothesis
import hypothesis.strategies as strat
import pytest

from braidshadow.errors import (
    BraidRelationError,
    DegreeMismatchError,
    DomainTagMismatchError,
    GroupSizeCapExceeded,
    InternalInconsistencyError,
)
from braidshadow.perms import (
    GeneratedGroup,
    GenHom,
    Permutation,
    block_sum,
    closure_order,
    commutator_subgroup,
    evaluate_word,
    generate_group,
    is_generating_set,
    kernel_contained,
    kernels_equal,
)
from braidshadow.words import TAG_B3, TAG_F2, FreeWord, all_reduced_words, empty_word

ID2 = Permutation.identity(2)
SWAP = Permutation((1, 0))
C3 = Permutation((1, 2, 0))
T01 = Permutation((1, 0, 2))
T12 = Permutation((0, 2, 1))

perms6 = strat.permutations(range(6)).map(lambda xs: Permutation(tuple(xs)))
perms5 = strat.permutations(range(5)).map(lambda xs: Permutation(tuple(xs)))


# ---------------------------------------------------------------------------
# Permutation arithmetic

def test_mul_applies_left_factor_first():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    r = p * q
    for i in range(3):
        assert r.images[i] == q.images[p.images[i]]


def test_rejects_non_bijections():
    for images in [(0, 0), (1, 2), (0, 0, 1), (0, 2), (-1, 0), (1,)]:
        with pytest.raises(ValueError):
            Permutation(images)
    # unchecked products still refuse mixed degrees
    for p, q in [(SWAP, C3), (C3, Permutation.identity(4))]:
        with pytest.raises(DegreeMismatchError):
            p * q


def test_pow_matches_repeated_product():
    for p in (C3, T01, Permutation((1, 2, 3, 4, 0))):
        acc = Permutation.identity(p.degree)
        for k in range(10):
            assert p**k == acc
            assert p**-k == acc.inverse()
            acc = acc * p


def test_order_matches_brute_force():
    for p in (ID2, SWAP, C3, T01, Permutation((1, 0, 3, 2)), Permutation((1, 2, 0, 4, 3))):
        k = 1
        acc = p
        while not acc.is_identity():
            acc = acc * p
            k += 1
        assert p.order() == k
        assert sum(p.cycle_lengths()) == p.degree


def test_block_sum():
    s = block_sum(SWAP, C3)
    assert s.images == (1, 0, 3, 4, 2)
    assert s.cycle_lengths() == [2, 3]
    assert block_sum(SWAP) == SWAP


@hypothesis.given(perms6, perms6)
def test_inverse_antihomomorphism(p, q):
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert (p * p.inverse()).is_identity()


@hypothesis.given(perms6, perms6, perms6)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


# Products, inverses and powers skip the bijection check; these compare
# them with image tuples computed here and wrapped by the checked constructor.
same_degree_pairs = strat.integers(1, 12).flatmap(
    lambda n: strat.tuples(strat.permutations(range(n)), strat.permutations(range(n)))
)


def checked_equal(got, expected_images):
    expected = Permutation(tuple(expected_images))
    assert type(got.images) is tuple
    assert got == expected and hash(got) == hash(expected)


@hypothesis.given(same_degree_pairs, strat.integers(-30, 30))
@hypothesis.settings(max_examples=200)
def test_unchecked_arithmetic_matches_the_checked_reference(pair, n):
    a, b = pair
    p, q = Permutation(tuple(a)), Permutation(tuple(b))
    degree = len(a)
    checked_equal(p * q, [b[a[i]] for i in range(degree)])
    inverse = [a.index(i) for i in range(degree)]
    checked_equal(p.inverse(), inverse)
    step = a if n >= 0 else inverse
    power = list(range(degree))
    for _ in range(abs(n)):
        power = [step[i] for i in power]
    checked_equal(p**n, power)
    checked_equal(Permutation.identity(degree), range(degree))


# ---------------------------------------------------------------------------
# group generation

def test_generate_s3():
    G = generate_group([T01, T12], tag=TAG_B3)
    assert G.order == 6
    assert G.degree == 3
    assert G.identity in G
    assert G.elements_in_order[0] == G.identity
    for g in G.elements_in_order:
        assert G.evaluate(G.word_of(g)) == g
    # words use positive letters only
    for w in map(G.word_of, G.elements_in_order):
        assert all(s == 1 for _, s in w.letters)


def test_generation_is_deterministic():
    G1 = generate_group([T01, T12], tag=TAG_B3)
    G2 = generate_group([T01, T12], tag=TAG_B3)
    assert G1.elements_in_order == G2.elements_in_order
    # words asked for last element first match the whole table
    spelled = {g: G1.word_of(g) for g in reversed(G1.elements_in_order)}
    table = {g: G2.word_of(g) for g in G2.elements_in_order}
    assert spelled == table
    assert {g: G1.word_of(g) for g in G1.elements_in_order} == table


def test_generate_group_rejects_bad_generators():
    with pytest.raises(ValueError):
        generate_group([])
    with pytest.raises(DegreeMismatchError):
        generate_group([T01, SWAP])


def test_group_size_cap():
    with pytest.raises(GroupSizeCapExceeded) as exc:
        generate_group([T01, T12], max_size=3)
    assert exc.value.cap == 3
    assert exc.value.partial_count == 4
    with pytest.raises(GroupSizeCapExceeded):
        closure_order([T01, T12], max_size=3)


def test_closure_order_agrees_with_generation():
    cases = [[T01], [C3], [T01, T12], [Permutation((1, 2, 3, 0))], [SWAP, ID2]]
    for gens in cases:
        assert closure_order(gens) == generate_group(gens).order


def test_index_lookup(cat09):
    G = generate_group([T01, T12])
    for H in (G, cat09.b3_quotient):
        for i, g in enumerate(H.elements_in_order):
            assert H.index_of(g) == i
            assert H.index_of(Permutation(g.images)) == i  # a freshly checked copy
    assert Permutation((1, 2, 0)) in G
    # membership is exactly the listed elements, each listed once
    for H in (G, generate_group([C3])):
        assert len(set(H.elements_in_order)) == H.order
        for t in itertools.permutations(range(3)):
            assert (Permutation(t) in H) == (Permutation(t) in H.elements_in_order)


# ---------------------------------------------------------------------------
# commutator subgroups

def brute_commutator_order(G):
    # closure of the set of all element-wise commutators; independent of the
    # normal-closure-of-generator-commutators construction under test
    comms = {
        a * b * a.inverse() * b.inverse()
        for a, b in itertools.product(G.elements_in_order, repeat=2)
    }
    return closure_order(sorted(comms, key=lambda p: p.images))


def test_commutator_subgroup_s3():
    G = generate_group([T01, T12], tag=TAG_F2)
    D = commutator_subgroup(G)
    assert D.order == 3
    assert D.order == brute_commutator_order(G)
    assert C3 in D


def test_commutator_subgroup_s4():
    a = Permutation((1, 0, 2, 3))
    b = Permutation((1, 2, 3, 0))
    G = generate_group([a, b], tag=TAG_F2)
    assert G.order == 24
    D = commutator_subgroup(G)
    assert D.order == 12
    assert D.order == brute_commutator_order(G)


def test_commutator_subgroup_abelian_is_trivial():
    G = generate_group([C3], tag=TAG_F2)
    D = commutator_subgroup(G)
    assert D.order == 1
    assert D.elements_in_order == [Permutation.identity(3)]


def test_commutator_words_are_literal():
    # every stored word is spelled over the parent generators, has vanishing
    # exponent sums, and evaluates back to its element
    G = generate_group([T01, T12], tag=TAG_F2)
    D = commutator_subgroup(G)
    assert D.word_basis == G.generators
    for g in D.elements_in_order:
        w = D.word_of(g)
        assert w.exponent_sums() == (0, 0)
        assert evaluate_word(w, G.generators) == g or g.is_identity()


# ---------------------------------------------------------------------------
# homomorphisms and kernels

def test_genhom_validation():
    GenHom(TAG_B3, (T01, T12))  # braid relation holds for adjacent swaps
    with pytest.raises(BraidRelationError):
        GenHom(TAG_B3, (T01, C3))
    with pytest.raises(ValueError):
        GenHom(TAG_F2, (T01,))
    with pytest.raises(ValueError):
        GenHom(TAG_B3, (T01, T12, T01))
    with pytest.raises(ValueError):
        GenHom("PB3", (T01, T01, Permutation.identity(3)))  # no longer a domain
    with pytest.raises(DegreeMismatchError):
        GenHom(TAG_F2, (SWAP, T01))
    with pytest.raises(ValueError):
        GenHom("F5", (SWAP, SWAP))


def kernel_contained_oracle(hom1, hom2):
    # pair the images and walk the product group: ker(hom1) <= ker(hom2) iff
    # the first component determines the second on every reachable element
    paired = [block_sum(p, q) for p, q in zip(hom1.images, hom2.images)]
    d1 = hom1.degree
    table = {}
    for g in generate_group(paired).elements_in_order:
        first = g.images[:d1]
        second = tuple(i - d1 for i in g.images[d1:])
        if table.setdefault(first, second) != second:
            return False
    return True


C6 = Permutation((1, 2, 3, 4, 5, 0))
HOM_PAIRS = [
    # (hom1, hom2, expected ker(hom1) <= ker(hom2))
    (GenHom(TAG_F2, (SWAP, SWAP)), GenHom(TAG_F2, (ID2, ID2)), True),
    (GenHom(TAG_F2, (ID2, ID2)), GenHom(TAG_F2, (SWAP, SWAP)), False),
    (GenHom(TAG_F2, (SWAP, ID2)), GenHom(TAG_F2, (ID2, SWAP)), False),
    (GenHom(TAG_F2, (ID2, SWAP)), GenHom(TAG_F2, (SWAP, ID2)), False),
    (GenHom(TAG_F2, (C6, C6)), GenHom(TAG_F2, (C3, C3)), True),
    (GenHom(TAG_F2, (C3, C3)), GenHom(TAG_F2, (C6, C6)), False),
    (GenHom(TAG_B3, (T01, T12)), GenHom(TAG_B3, (SWAP, SWAP)), True),
    (GenHom(TAG_B3, (SWAP, SWAP)), GenHom(TAG_B3, (T01, T12)), False),
]


def test_kernel_contained_against_pairing_oracle():
    for hom1, hom2, expected in HOM_PAIRS:
        assert kernel_contained(hom1, hom2) is expected, (hom1, hom2)
        assert kernel_contained_oracle(hom1, hom2) is expected, (hom1, hom2)


def test_kernel_contained_against_word_search():
    # second oracle: scan all short words; a kernel word for hom1 must be a
    # kernel word for hom2 when containment holds, and each False case must
    # show a short witness
    for hom1, hom2, expected in HOM_PAIRS:
        witness = None
        for w in all_reduced_words(hom1.domain_tag, 6):
            if hom1.evaluate(w).is_identity() and not hom2.evaluate(w).is_identity():
                witness = w
                break
        if expected:
            assert witness is None, (hom1, hom2)
        else:
            assert witness is not None, (hom1, hom2)


def test_kernel_contained_rejects_mixed_domains():
    with pytest.raises(DomainTagMismatchError):
        kernel_contained(GenHom(TAG_F2, (SWAP, SWAP)), GenHom(TAG_B3, (T01, T12)))
    with pytest.raises(DomainTagMismatchError):
        kernels_equal(GenHom(TAG_F2, (SWAP, SWAP)), GenHom(TAG_B3, (T01, T12)))


def test_kernels_equal():
    hom = GenHom(TAG_F2, (T01, T12))
    assert kernels_equal(hom, hom)
    # conjugate images give the same kernel on different elements
    conj = GenHom(TAG_F2, tuple(C3.inverse() * p * C3 for p in hom.images))
    assert conj.images != hom.images
    assert kernels_equal(hom, conj)
    assert not kernels_equal(hom, GenHom(TAG_F2, (ID2.identity(3), T12)))


def test_is_generating_set():
    G = generate_group([T01, T12])
    assert is_generating_set(G, [T01, T12])
    assert is_generating_set(G, [T01, C3])
    assert not is_generating_set(G, [C3])
    assert not is_generating_set(G, [])
    trivial = generate_group([Permutation.identity(3)])
    assert is_generating_set(trivial, [])
    with pytest.raises(ValueError):
        is_generating_set(G, [Permutation((1, 0, 3, 2))])


_S5 = generate_group([Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0))])


@hypothesis.given(strat.lists(strat.integers(0, 119), max_size=3))
@hypothesis.settings(max_examples=80, deadline=None)
def test_is_generating_set_against_closure_order(picks):
    elems = [_S5.elements_in_order[i] for i in picks]
    expected = bool(elems) and closure_order(elems) == _S5.order
    assert is_generating_set(_S5, elems) is expected


@hypothesis.given(
    strat.lists(perms6, min_size=2, max_size=2),
    strat.lists(perms5, min_size=2, max_size=2),
    strat.lists(strat.integers(min_value=0), min_size=2, max_size=2),
    strat.booleans(),
    perms5,
)
@hypothesis.settings(max_examples=40, deadline=None)
def test_hom_into_evaluates_the_tree_words(gens, h_gens, picks, by_sign, stray):
    G, H = generate_group(gens), generate_group(h_gens)
    images = [H.elements_in_order[k % H.order] for k in picks]
    if by_sign:
        # the sign map always extends, so the walk is checked on a real map
        swap = Permutation((1, 0, 2, 3, 4))
        H = generate_group([swap])
        images = [swap if (6 - len(g.cycle_lengths())) % 2 else H.identity for g in gens]
    a = G.hom_into(H, images)
    if kernel_contained(GenHom(TAG_F2, G.generators), GenHom(TAG_F2, images)):
        expected = [
            H.index_of(evaluate_word(G.word_of(g), images)) for g in G.elements_in_order
        ]
        assert a == expected
    else:
        assert not by_sign
        assert a is None
    if stray not in H:
        assert G.hom_into(H, [stray, images[1]]) is None


@pytest.mark.parametrize("gens", [
    [T01, T12],
    [C3],
    [Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0))],
    [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2)), Permutation((2, 3, 0, 1))],
    [
        Permutation((1, 2, 0, 3, 4, 5)),
        Permutation((0, 1, 2, 4, 5, 3)),
        Permutation((3, 4, 5, 0, 1, 2)),
    ],
], ids=["S3", "C3", "S5", "C2-wreath-C2", "C3-wreath-C2"])
def test_right_and_inverse_tables(gens):
    G = generate_group(gens)
    elements = G.elements_in_order
    inverse = G._inverse_table()
    assert inverse == [G.index_of(x.inverse()) for x in elements]
    for p in elements:
        assert G._right_table(p) == [G.index_of(x * p) for x in elements]
    for g, gen in enumerate(G.generators):
        assert G._right_table(gen) is G.right[g]


@hypothesis.given(strat.lists(perms6, min_size=1, max_size=3))
@hypothesis.settings(max_examples=40, deadline=None)
def test_generated_group_closure_law(gens):
    G = generate_group(gens)
    for a in G.generators:
        for b in G.elements_in_order:
            assert b * a in G
            assert b.inverse() in G


@hypothesis.given(strat.lists(perms6, min_size=1, max_size=3))
@hypothesis.settings(max_examples=40, deadline=None)
def test_right_multiplication_table(gens):
    G = generate_group(gens)
    assert len(G.right) == len(G.generators)
    for g, gen in enumerate(G.generators):
        assert len(G.right[g]) == G.order
        for i, p in enumerate(G.elements_in_order):
            assert G.right[g][i] == G.index_of(p * gen)


def extends_to_automorphism(G, images):
    # gen_i -> images[i] through hom_into: a None result means no
    # homomorphism; a table with fewer than |G| values, not injective
    a = G.hom_into(G, images)
    return a is not None and len(set(a)) == G.order


@hypothesis.given(strat.lists(perms6, min_size=1, max_size=3), strat.integers(min_value=0))
@hypothesis.settings(max_examples=40, deadline=None)
def test_identity_and_inner_maps_are_automorphisms(gens, pick):
    G = generate_group(gens)
    assert extends_to_automorphism(G, G.generators)
    h = G.elements_in_order[pick % G.order]
    assert extends_to_automorphism(G, [h.inverse() * g * h for g in G.generators])
    # the trivial map is well defined, and injective only on a trivial group
    trivial = G.hom_into(G, [G.identity] * len(gens))
    assert trivial == [0] * G.order
    assert extends_to_automorphism(G, [G.identity] * len(gens)) == (G.order == 1)


@hypothesis.given(
    strat.lists(perms5, min_size=1, max_size=3),
    strat.lists(strat.integers(min_value=0), min_size=3, max_size=3),
)
@hypothesis.settings(max_examples=60, deadline=None)
def test_is_automorphism_against_paired_closure(gens, picks):
    # gen_i -> t_i extends to an injective endomorphism iff the paired
    # image is no bigger than the group and the t_i generate all of it
    G = generate_group(gens)
    images = [G.elements_in_order[k % G.order] for k in picks[: len(gens)]]
    paired = [block_sum(g, t) for g, t in zip(G.generators, images)]
    well_defined = closure_order(paired) == G.order
    assert (G.hom_into(G, images) is not None) == well_defined
    onto = closure_order(images) == G.order
    assert extends_to_automorphism(G, images) == (well_defined and onto)


def test_swapped_images_breaking_a_relation():
    G = generate_group([T01, C3])  # S3; T01 has order 2, C3 order 3
    assert extends_to_automorphism(G, [T01, C3])
    assert G.hom_into(G, [C3, T01]) is None
    # the braid generators of S3 swap by conjugation with (0 2)
    H = generate_group([T01, T12])
    assert extends_to_automorphism(H, [T12, T01])


def test_is_automorphism_rejects_images_outside_the_group():
    G = generate_group([C3])
    assert G.hom_into(G, [T01]) is None
    assert G.hom_into(G, [Permutation((1, 2, 3, 0))]) is None
    with pytest.raises(ValueError):
        G.hom_into(G, [C3, C3])


def test_a_group_without_a_table_fails_loudly():
    # a commutator subgroup is enumerated to its known order, with no table
    G = generate_group([T01, T12], tag=TAG_F2)
    D = commutator_subgroup(G)
    assert D.right is None
    for call in (
        lambda: D._walk([[0]]),
        lambda: D._right_table(C3),
        lambda: D._inverse_table(),
        lambda: D.hom_into(G, [C3] * len(D.generators)),
        lambda: G.hom_into(D, [C3, C3]),
        lambda: generate_group(D.generators).hom_into(D),
        lambda: is_generating_set(D, [C3]),
        lambda: commutator_subgroup(D),
    ):
        with pytest.raises(ValueError, match="without a multiplication table"):
            call()


def test_known_order_stops_the_same_bfs():
    gens = [Permutation((1, 2, 3, 4, 0)), Permutation((1, 0, 2, 3, 4))]
    full = generate_group(gens)
    short = generate_group(gens, order=full.order)
    assert short.right is None
    assert short.elements_in_order == full.elements_in_order
    assert (short._parent, short._via) == (full._parent, full._via)
    with pytest.raises(GroupSizeCapExceeded):
        generate_group(gens, max_size=full.order - 1, order=full.order)
    with pytest.raises(InternalInconsistencyError):
        generate_group(gens, order=full.order + 1)


def test_quotient_closures_are_frozen(catalog7, cat09, cat10):
    # discovery order, Schreier tree and right table of B3/N and F2/N_F2
    # for every degree-7 kernel, hashed from the closure over Permutation
    # objects with a validated product
    digest = hashlib.sha256()
    for N in [*catalog7, cat09, cat10]:
        for G in (N.b3_quotient, N.data.f2_quotient):
            for i, g in enumerate(G.elements_in_order):
                digest.update(repr((g.images, G._parent[i], G._via[i])).encode())
            digest.update(repr(G.right).encode())
    assert digest.hexdigest() == (
        "a4842374343f919f084c2e77dfb76ca8a9bbe8226bf5cd35eee94dffcd4cdd6e"
    )


def test_quotient_closure_trips_the_cap_at_its_order(cat09):
    gens = cat09.hom.images
    order = cat09.b3_quotient.order
    assert generate_group(gens, tag=TAG_B3, max_size=order).order == order
    with pytest.raises(GroupSizeCapExceeded) as exc:
        generate_group(gens, tag=TAG_B3, max_size=order - 1)
    assert (exc.value.cap, exc.value.partial_count) == (order - 1, order)


@pytest.mark.parametrize("gens", [
    [T01, T12],
    [C3],
    [Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))],
    [Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2)), Permutation((2, 3, 0, 1))],
    [Permutation((1, 2, 0, 3, 4, 5)), Permutation((0, 1, 2, 4, 5, 3))],
    [Permutation((1, 2, 3, 4, 0)), Permutation((1, 0, 2, 3, 4))],
], ids=["S3", "C3", "S4", "C2-wreath-C2", "C3xC3", "S5"])
def test_commutator_order_against_brute_force(gens):
    G = generate_group(gens)
    assert commutator_subgroup(G).order == brute_commutator_order(G)
    assert generator_commutator_order(G) == brute_commutator_order(G)


def generator_commutator_order(G):
    # |<[g, s] : g in G, s a generator>|, which is [G,G]: conjugating
    # s^-1 s^g by t gives (s^-1 s^t)^-1 s^-1 s^(gt), so the subgroup is
    # normal, and modulo it every generator is central.  |G| |gens|
    # commutators instead of brute force's |G|^2 (2.9 s on S6); a commutator
    # joins the generators only when the closure so far misses it
    gens, closure = [], {G.identity}
    for g in G.elements_in_order:
        for s in G.generators:
            c = s.inverse() * g.inverse() * s * g
            if c not in closure:
                gens.append(c)
                closure = set(generate_group(gens).elements_in_order)
    return len(closure)


@hypothesis.given(
    strat.one_of(
        strat.lists(perms5, min_size=2, max_size=3), strat.lists(perms6, min_size=2, max_size=3)
    )
)
@hypothesis.settings(max_examples=60, deadline=None)
def test_commutator_order_on_random_subgroups(gens):
    G = generate_group(gens)
    assert commutator_subgroup(G).order == generator_commutator_order(G)


perms4 = strat.permutations(range(4)).map(lambda xs: Permutation(tuple(xs)))


@hypothesis.given(
    strat.lists(perms4, min_size=2, max_size=2), strat.lists(perms4, min_size=2, max_size=2)
)
@hypothesis.settings(max_examples=60, deadline=None)
def test_maps_onto_against_kernel_contained(gens1, gens2):
    G1, G2 = generate_group(gens1), generate_group(gens2)
    expected = kernel_contained(GenHom(TAG_F2, gens1), GenHom(TAG_F2, gens2))
    assert G1.maps_onto(G2) == expected


def test_maps_onto_a_quotient():
    S3 = generate_group([T01, T12])
    sign = generate_group([SWAP, SWAP])
    assert S3.maps_onto(sign)
    assert not sign.maps_onto(S3)
    with pytest.raises(ValueError):
        generate_group([C3]).maps_onto(S3)


def test_evaluate_word_with_inverses():
    w = FreeWord(TAG_F2, ((0, 1), (1, -1), (0, 1)))
    assert evaluate_word(w, (C3, T01)) == C3 * T01.inverse() * C3
    assert evaluate_word(empty_word(TAG_F2), (C3, T01)).is_identity()
