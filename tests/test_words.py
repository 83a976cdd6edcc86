import itertools
import random
import time

import hypothesis
import hypothesis.strategies as strat
import pytest

from braidshadow.errors import NotCommutatorWordError
from braidshadow.words import (
    C_WORD,
    DELTA,
    SIGMA1,
    SIGMA2,
    TAG_B3,
    TAG_F2,
    TRANSVERSAL_LABELS,
    TRANSVERSAL_WORDS,
    X,
    Y,
    Z,
    FreeWord,
    all_reduced_words,
    apply_endo,
    artin_equal,
    artin_images,
    b3_normal_form,
    bullet_monoid,
    e_endo,
    embed_f2_in_b3,
    empty_word,
    f2_endo_apply,
    random_word,
    require_commutator_form,
    tau,
    theta,
    word_from_text,
    word_to_text,
    _selfcheck,
    _sl2z_key,
)


def words(tag, max_len=12):
    return strat.lists(
        strat.tuples(strat.integers(0, 1), strat.sampled_from((1, -1))),
        max_size=max_len,
    ).map(lambda ls: FreeWord(tag, tuple(ls)))


def commutator_words(max_factors=3, max_len=4):
    # products of conjugated commutators u [a,b] u^-1: literally in [F2,F2]
    factor = strat.tuples(words(TAG_F2, max_len), words(TAG_F2, max_len), words(TAG_F2, max_len))

    def build(factors):
        out = empty_word(TAG_F2)
        for u, a, b in factors:
            out = out * u * a * b * a.inv() * b.inv() * u.inv()
        return out

    return strat.lists(factor, max_size=max_factors).map(build)


# ---------------------------------------------------------------------------
# free reduction and word algebra

def test_reduction_basics():
    assert (X * X.inv()).is_empty()
    assert (X * Y * Y.inv() * X.inv()).is_empty()
    w = X * Y * X.inv()
    assert w.inv() == X * Y.inv() * X.inv()
    assert w**0 == empty_word(TAG_F2)
    assert w**-2 == w.inv() * w.inv()
    assert len(X**5) == 5
    assert FreeWord(w.tag, w.letters) == w


def test_mixed_alphabet_rejected():
    with pytest.raises(ValueError):
        X * SIGMA1


def test_bad_sign_rejected():
    with pytest.raises(ValueError):
        FreeWord(TAG_F2, ((0, 2),))


@hypothesis.given(words(TAG_F2), words(TAG_F2))
def test_inverse_law(u, v):
    assert (u * v).inv() == v.inv() * u.inv()
    assert (u * u.inv()).is_empty()


@hypothesis.given(words(TAG_B3, 16))
def test_text_round_trip_b3(w):
    assert word_from_text(word_to_text(w), TAG_B3) == w


@hypothesis.given(words(TAG_F2, 16))
def test_text_round_trip_f2(w):
    assert word_from_text(word_to_text(w), TAG_F2) == w


def test_text_rejects_foreign_letters():
    with pytest.raises(ValueError):
        word_from_text("xq", TAG_F2)
    with pytest.raises(ValueError):
        word_from_text("x", TAG_B3)
    with pytest.raises(ValueError):
        word_to_text(FreeWord("F5", ((0, 1),)))


def test_exponent_sums_and_commutator_form():
    assert (X * Y * X.inv()).exponent_sums() == (0, 1)
    require_commutator_form(X * Y * X.inv() * Y.inv())
    require_commutator_form(empty_word(TAG_F2))
    with pytest.raises(NotCommutatorWordError):
        require_commutator_form(X)


# ---------------------------------------------------------------------------
# endomorphisms

def test_theta_tau_values():
    assert theta(X) == Y
    assert theta(Y) == X
    assert tau(X) == Y
    assert tau(Y) == Z
    assert tau(tau(X)) == Z


@hypothesis.given(words(TAG_F2))
def test_theta_involution(w):
    assert theta(theta(w)) == w


@hypothesis.given(words(TAG_F2))
def test_tau_order_three(w):
    assert tau(tau(tau(w))) == w


# The conjugation forms that shadows.enumerate_shadows evaluates in B3/N.
_U = SIGMA1 * SIGMA2


@hypothesis.given(words(TAG_F2, 8))
@hypothesis.settings(max_examples=40, deadline=None)
def test_theta_is_conjugation_by_delta(w):
    assert artin_equal(
        embed_f2_in_b3(theta(w)), DELTA * embed_f2_in_b3(w) * DELTA.inv()
    )


@hypothesis.given(words(TAG_F2, 8))
@hypothesis.settings(max_examples=40, deadline=None)
def test_tau_is_conjugation_by_sigma1_sigma2_up_to_c(w):
    _, e_y = w.exponent_sums()
    assert artin_equal(
        embed_f2_in_b3(tau(w)), _U * embed_f2_in_b3(w) * _U.inv() * C_WORD ** (-e_y)
    )


@hypothesis.given(words(TAG_F2), words(TAG_F2))
def test_substitution_is_homomorphic(u, v):
    images = (Y * X * Y.inv(), X * Y)
    assert apply_endo(u * v, images) == apply_endo(u, images) * apply_endo(v, images)


def test_f2_endo_rejects_braid_words():
    with pytest.raises(ValueError):
        f2_endo_apply(SIGMA1, X, Y)
    with pytest.raises(ValueError):
        embed_f2_in_b3(SIGMA1)


def test_e_endo_values():
    f = X * Y * X.inv() * Y.inv()
    assert e_endo(0, empty_word(TAG_F2), X * Y) == X * Y
    assert e_endo(2, f, X) == X**5
    assert e_endo(1, f, Y) == f.inv() * Y**3 * f


def test_bullet_m_part():
    # m1=1, m2=2 -> 2*1*2 + 1 + 2 = 7
    m, f = bullet_monoid(1, empty_word(TAG_F2), 2, empty_word(TAG_F2))
    assert m == 7
    assert f.is_empty()


@hypothesis.given(
    strat.integers(0, 2), commutator_words(),
    strat.integers(0, 2), commutator_words(),
    strat.integers(0, 2), commutator_words(),
)
@hypothesis.settings(max_examples=60, deadline=None)
def test_bullet_associative(m1, f1, m2, f2, m3, f3):
    left = bullet_monoid(*bullet_monoid(m1, f1, m2, f2), m3, f3)
    right = bullet_monoid(m1, f1, *bullet_monoid(m2, f2, m3, f3))
    assert left == right


@hypothesis.given(strat.integers(0, 3), commutator_words(), words(TAG_F2))
@hypothesis.settings(max_examples=60, deadline=None)
def test_e_endo_is_homomorphic_in_w(m, f, w):
    assert e_endo(m, f, w).exponent_sums() == tuple(
        (2 * m + 1) * s for s in w.exponent_sums()
    )


# ---------------------------------------------------------------------------
# the Artin action oracle

def test_artin_hand_values():
    assert artin_images(SIGMA1) == ((1, 2, -1), (1,), (3,))
    assert artin_images(SIGMA2) == ((1,), (2, 3, -2), (2,))
    assert artin_images(empty_word(TAG_B3)) == ((1,), (2,), (3,))
    assert artin_images(SIGMA1 * SIGMA1.inv()) == ((1,), (2,), (3,))


def test_artin_braid_relation():
    assert artin_equal(SIGMA1 * SIGMA2 * SIGMA1, SIGMA2 * SIGMA1 * SIGMA2)
    assert not artin_equal(SIGMA1 * SIGMA2, SIGMA2 * SIGMA1)
    assert not artin_equal(SIGMA1, SIGMA2)


def test_sl2z_oracle_kernel_cases():
    # delta^4 is in the kernel of B3 -> SL2(Z); only its exponent sum, 12,
    # tells it apart from the identity
    assert _sl2z_key(C_WORD * C_WORD) == (1, 0, 0, 1, 12)
    assert not artin_equal(C_WORD * C_WORD, empty_word(TAG_B3))
    assert _sl2z_key(DELTA) == (0, 1, -1, 0, 3)
    assert _sl2z_key(C_WORD) == (-1, 0, 0, -1, 6)
    with pytest.raises(ValueError):
        artin_equal(X, X)
    with pytest.raises(ValueError):
        artin_equal(SIGMA1, X)
    with pytest.raises(ValueError):
        artin_images(X)


def test_artin_center():
    # c = delta^2 fixes every generator up to conjugation by the full twist;
    # in particular c commutes with sigma_1 and sigma_2
    for g in (SIGMA1, SIGMA2):
        assert artin_equal(C_WORD * g, g * C_WORD)


_RELATOR = SIGMA1 * SIGMA2 * SIGMA1 * (SIGMA2 * SIGMA1 * SIGMA2).inv()


@hypothesis.given(words(TAG_B3, 10), strat.data())
def test_artin_invariant_under_relator_insertion(w, data):
    pos = data.draw(strat.integers(0, len(w.letters)))
    spliced = FreeWord(
        TAG_B3, w.letters[:pos] + _RELATOR.letters + w.letters[pos:]
    )
    assert artin_equal(w, spliced)


# ---------------------------------------------------------------------------
# normal form

def test_normal_form_hand_values():
    nf = b3_normal_form(DELTA)
    assert (nf.f2_part, nf.c_exponent, nf.coset_index) == (empty_word(TAG_F2), 0, "aba")
    nf = b3_normal_form(C_WORD)
    assert (nf.f2_part, nf.c_exponent, nf.coset_index) == (empty_word(TAG_F2), 1, "e")
    nf = b3_normal_form(SIGMA1 * SIGMA1)
    assert (nf.f2_part, nf.c_exponent, nf.coset_index) == (X, 0, "e")
    nf = b3_normal_form(SIGMA2**-2)
    assert (nf.f2_part, nf.c_exponent, nf.coset_index) == (Y.inv(), 0, "e")
    assert b3_normal_form(SIGMA1).coset_index == "a"
    assert not b3_normal_form(SIGMA1).in_pb3()
    assert b3_normal_form(C_WORD).in_pb3()


def test_normal_form_rejects_f2_words():
    with pytest.raises(ValueError):
        b3_normal_form(X)


@hypothesis.given(words(TAG_F2, 14))
def test_normal_form_inverts_the_embedding(w):
    nf = b3_normal_form(embed_f2_in_b3(w))
    assert (nf.f2_part, nf.c_exponent, nf.coset_index) == (w, 0, "e")


def test_normal_form_exhaustive_short_words():
    # round trip through the oracle, and uniqueness: words equal in B3 (equal
    # images under the faithful action on F3) must produce identical normal
    # forms; the oracle's SL2(Z) x Z key and the F3 images must partition the
    # words into the same classes
    seen = {}
    pairs = set()
    count = 0
    for w in all_reduced_words(TAG_B3, 8):
        nf = b3_normal_form(w)
        key = artin_images(w)
        assert artin_equal(w, nf.reassemble()), word_to_text(w)
        triple = (nf.f2_part, nf.c_exponent, nf.coset_index)
        assert seen.setdefault(key, triple) == triple, word_to_text(w)
        pairs.add((key, _sl2z_key(w)))
        count += 1
    assert count == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 9)) == 13_121
    assert len(seen) == len({sl2z for _, sl2z in pairs}) == len(pairs) == 2_589


def test_oracle_on_long_words_is_bounded():
    # F3 images grow exponentially with word length; the SL2(Z) x Z key is
    # five integers, each of at most 400 bits at 400 letters
    rng = random.Random(20261019)
    start = time.perf_counter()
    for _ in range(1_000):
        letters = tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(400))
        w = FreeWord(TAG_B3, letters)
        assert artin_equal(w, b3_normal_form(w).reassemble())
    assert time.perf_counter() - start < 5.0


def test_transversal_is_the_six_costandard_reps():
    assert TRANSVERSAL_LABELS == ("e", "a", "b", "ab", "ba", "aba")
    images = {artin_images(TRANSVERSAL_WORDS[lab]) for lab in TRANSVERSAL_LABELS}
    assert len(images) == 6


def test_selfcheck_tables():
    _selfcheck()


@hypothesis.given(strat.randoms(use_true_random=False))
def test_random_word_is_bounded_and_reduced(rng):
    w = random_word(rng, TAG_B3, 12)
    assert len(w) <= 12
    for (g1, s1), (g2, s2) in itertools.pairwise(w.letters):
        assert not (g1 == g2 and s1 == -s2)
