"""Exact word arithmetic for B3 and F2, and an exact equality oracle for B3.

Conventions used throughout the package:

* B3 = < sigma_1, sigma_2 | sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2 >.
  Letter index 0 is sigma_1, index 1 is sigma_2.  Text form: ``a``/``b`` with
  capitals for inverses.
* F2 = < x, y > sits inside PB3 as x = sigma_1^2, y = sigma_2^2.  Letter index
  0 is x, index 1 is y.  Text form: ``x``/``y``/``X``/``Y``.
* delta = sigma_1 sigma_2 sigma_1 and c = delta^2; c is central in B3 and
  PB3 = F2 x <c>.
* Products read left to right: the word ``u v`` means "u then v", matching the
  permutation composition convention in :mod:`braidshadow.perms`.

The six-coset bookkeeping over the fixed transversal
{e, sigma_1, sigma_2, sigma_1 sigma_2, sigma_2 sigma_1, delta} is one table,
:data:`COSET_TABLE`, that :func:`b3_normal_form` and
:func:`braidshadow.subgroups.from_f2_quotient` both read.  Its 24 rows are
identities in B3, each checked against the equality oracle in the test
suite; among them are the conjugation identities
sigma_1 y sigma_1^-1 = y^-1 x^-1 c and sigma_2 x sigma_2^-1 = x^-1 y^-1 c
(rows (ab, sigma_2) and (ba, sigma_1)), and delta sigma_1 = y sigma_1 sigma_2
and delta sigma_2 = x sigma_2 sigma_1.

Equality in B3 is decided in SL2(Z) x Z, by :func:`artin_equal`: a braid
word maps to the product of its letters' 2x2 integer matrices and to its
exponent sum, which costs one small matrix product per letter.  It does not
use the coset table, so it checks the table and the normal form
independently.  The faithful Artin action on F3 (:func:`artin_images`) is
kept as the reference; its images grow exponentially with word length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotCommutatorWordError

TAG_B3 = "B3"
TAG_F2 = "F2"

Letter = tuple[int, int]  # (generator index, sign +1/-1)


def _reduced(letters) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for gen, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be +-1, got {sign}")
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word over a tagged alphabet.

    The constructor reduces, so every FreeWord in existence is reduced.
    """

    tag: str
    letters: tuple[Letter, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduced(self.letters))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.tag != other.tag:
            raise ValueError(f"alphabet mismatch: {self.tag} vs {other.tag}")
        return FreeWord(self.tag, self.letters + other.letters)

    def inv(self) -> "FreeWord":
        return FreeWord(self.tag, tuple((g, -s) for g, s in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        base = self if n >= 0 else self.inv()
        return FreeWord(self.tag, base.letters * abs(n))

    def __len__(self) -> int:
        return len(self.letters)

    def is_empty(self) -> bool:
        return not self.letters

    def exponent_sums(self) -> tuple[int, ...]:
        sums = [0, 0]
        for g, s in self.letters:
            sums[g] += s
        return tuple(sums)


def empty_word(tag: str) -> FreeWord:
    return FreeWord(tag, ())


def letter(tag: str, gen: int) -> FreeWord:
    return FreeWord(tag, ((gen, 1),))


# Named generator words used all over the place.
SIGMA1 = letter(TAG_B3, 0)
SIGMA2 = letter(TAG_B3, 1)
X = letter(TAG_F2, 0)
Y = letter(TAG_F2, 1)
Z = Y.inv() * X.inv()
DELTA = SIGMA1 * SIGMA2 * SIGMA1
C_WORD = DELTA * DELTA


# ---------------------------------------------------------------------------
# text form


_TEXT_ALPHABETS = {TAG_B3: "ab", TAG_F2: "xy"}


def word_to_text(w: FreeWord) -> str:
    try:
        alpha = _TEXT_ALPHABETS[w.tag]
    except KeyError:
        raise ValueError(f"no text form for alphabet {w.tag}")
    return "".join(alpha[g].upper() if s < 0 else alpha[g] for g, s in w.letters)


def word_from_text(text: str, tag: str = TAG_F2) -> FreeWord:
    alpha = _TEXT_ALPHABETS[tag]
    letters = []
    for ch in text:
        low = ch.lower()
        if low not in alpha:
            raise ValueError(f"invalid letter {ch!r} for alphabet {tag}")
        letters.append((alpha.index(low), -1 if ch.isupper() else 1))
    return FreeWord(tag, tuple(letters))


# ---------------------------------------------------------------------------
# substitution endomorphisms


def apply_endo(w: FreeWord, images: tuple[FreeWord, ...]) -> FreeWord:
    """Homomorphic substitution: letter i goes to images[i].

    The images are only concatenated; the FreeWord constructor reduces.
    """
    inverses = [img.inv().letters for img in images]
    out: list[Letter] = []
    for g, s in w.letters:
        out.extend(images[g].letters if s > 0 else inverses[g])
    return FreeWord(images[0].tag, tuple(out))


def f2_endo_apply(w: FreeWord, x_image: FreeWord, y_image: FreeWord) -> FreeWord:
    if w.tag != TAG_F2:
        raise ValueError("f2_endo_apply expects a word over x,y")
    return apply_endo(w, (x_image, y_image))


def theta(w: FreeWord) -> FreeWord:
    """The order-2 automorphism swapping x and y."""
    return f2_endo_apply(w, Y, X)


def tau(w: FreeWord) -> FreeWord:
    """The order-3 automorphism x -> y, y -> y^-1 x^-1."""
    return f2_endo_apply(w, Y, Z)


def e_endo(m: int, f: FreeWord, w: FreeWord) -> FreeWord:
    """Endomorphism x -> x^(2m+1), y -> f^-1 y^(2m+1) f applied to ``w``."""
    x_img = X ** (2 * m + 1)
    y_img = f.inv() * Y ** (2 * m + 1) * f
    return f2_endo_apply(w, x_img, y_img)


def bullet_monoid(m1: int, f1: FreeWord, m2: int, f2: FreeWord) -> tuple[int, FreeWord]:
    """Monoid product on pairs (m, f): the defining law of shadow composition.

    (m1,f1) * (m2,f2) = (2 m1 m2 + m1 + m2, f1 * E_{m1,f1}(f2)); the odd parts
    multiply: 2m+1 = (2m1+1)(2m2+1).
    """
    return 2 * m1 * m2 + m1 + m2, f1 * e_endo(m1, f1, f2)


def embed_f2_in_b3(w: FreeWord) -> FreeWord:
    """Rewrite a word over x,y as a braid word via x = sigma_1^2, y = sigma_2^2."""
    if w.tag != TAG_F2:
        raise ValueError("embed_f2_in_b3 expects a word over x,y")
    return apply_endo(w, (SIGMA1 * SIGMA1, SIGMA2 * SIGMA2))


def require_commutator_form(f: FreeWord) -> None:
    """Error unless ``f`` lies in [F2,F2], i.e. both exponent sums vanish."""
    ex, ey = f.exponent_sums()
    if ex or ey:
        raise NotCommutatorWordError(
            f"word {word_to_text(f) or '(empty)'} has exponent sums "
            f"({ex},{ey}); not in the commutator subgroup"
        )


# ---------------------------------------------------------------------------
# B3 normal form over the PB3 transversal

TRANSVERSAL_LABELS = ("e", "a", "b", "ab", "ba", "aba")

TRANSVERSAL_WORDS = {
    "e": empty_word(TAG_B3),
    "a": SIGMA1,
    "b": SIGMA2,
    "ab": SIGMA1 * SIGMA2,
    "ba": SIGMA2 * SIGMA1,
    "aba": DELTA,
}

# The coset table.  In B3, a transversal word t times a sigma-letter is
# w c^k t' for an F2 word w and a transversal word t'; the row
# COSET_TABLE[(label of t, letter)] is (letters of w, k, label of t').
# Letters are (generator index, sign): (0, 1) is sigma_1, (1, -1) is
# sigma_2^-1, and on the F2 side (0, 1) is x, (1, -1) is y^-1.
COSET_TABLE = {
    ("e", (0, 1)): ((), 0, "a"),
    ("e", (0, -1)): (((0, -1),), 0, "a"),
    ("e", (1, 1)): ((), 0, "b"),
    ("e", (1, -1)): (((1, -1),), 0, "b"),
    ("a", (0, 1)): (((0, 1),), 0, "e"),
    ("a", (0, -1)): ((), 0, "e"),
    ("a", (1, 1)): ((), 0, "ab"),
    ("a", (1, -1)): (((0, 1), (1, 1)), -1, "ab"),
    ("b", (0, 1)): ((), 0, "ba"),
    ("b", (0, -1)): (((1, 1), (0, 1)), -1, "ba"),
    ("b", (1, 1)): (((1, 1),), 0, "e"),
    ("b", (1, -1)): ((), 0, "e"),
    ("ab", (0, 1)): ((), 0, "aba"),
    ("ab", (0, -1)): (((1, -1),), 0, "aba"),
    ("ab", (1, 1)): (((1, -1), (0, -1)), 1, "a"),
    ("ab", (1, -1)): ((), 0, "a"),
    ("ba", (0, 1)): (((0, -1), (1, -1)), 1, "b"),
    ("ba", (0, -1)): ((), 0, "b"),
    ("ba", (1, 1)): ((), 0, "aba"),
    ("ba", (1, -1)): (((0, -1),), 0, "aba"),
    ("aba", (0, 1)): (((1, 1),), 0, "ab"),
    ("aba", (0, -1)): ((), 0, "ab"),
    ("aba", (1, 1)): (((0, 1),), 0, "ba"),
    ("aba", (1, -1)): ((), 0, "ba"),
}


@dataclass(frozen=True)
class B3NormalForm:
    """Unique form (f2 word) * c^k * (transversal rep) of a braid word.

    Uniqueness comes from PB3 = F2 x <c> and the fixed six-element
    transversal of PB3 in B3.
    """

    f2_part: FreeWord
    c_exponent: int
    coset_index: str

    def reassemble(self) -> FreeWord:
        return (
            embed_f2_in_b3(self.f2_part)
            * C_WORD**self.c_exponent
            * TRANSVERSAL_WORDS[self.coset_index]
        )

    def in_pb3(self) -> bool:
        return self.coset_index == "e"


def b3_normal_form(w: FreeWord) -> B3NormalForm:
    """Left-to-right rewriting of a braid word into its PB3-transversal form.

    State is (F2 prefix, c exponent, transversal label).  Each letter is one
    :data:`COSET_TABLE` lookup: its row's F2 letters go onto the prefix, its
    c delta onto the exponent, and its label becomes the state's.  The F2
    prefix is freely reduced once, when it becomes a FreeWord.
    """
    if w.tag != TAG_B3:
        raise ValueError("b3_normal_form expects a braid word")
    prefix: list[Letter] = []
    c_exp = 0
    label = "e"
    for lt in w.letters:
        f2, dc, label = COSET_TABLE[label, lt]
        prefix.extend(f2)
        c_exp += dc
    return B3NormalForm(FreeWord(TAG_F2, tuple(prefix)), c_exp, label)


# ---------------------------------------------------------------------------
# Artin action of B3 on F3: the reference for the equality oracle

# Images of (a1, a2, a3) under each sigma-letter, as signed 1-based letters.
_ARTIN = {
    (0, 1): ((1, 2, -1), (1,), (3,)),
    (0, -1): ((2,), (-2, 1, 2), (3,)),
    (1, 1): ((1,), (2, 3, -2), (2,)),
    (1, -1): ((1,), (3,), (-3, 2, 3)),
}


def _subst(template, images):
    out: list[int] = []
    for tok in template:
        src = images[abs(tok) - 1]
        chunk = src if tok > 0 else [-t for t in reversed(src)]
        for t in chunk:
            if out and out[-1] == -t:
                out.pop()
            else:
                out.append(t)
    return out


def artin_images(w: FreeWord) -> tuple[tuple[int, ...], ...]:
    """Images of the free generators a1,a2,a3 under the braid ``w``.

    Letters are processed left to right; the accumulated endomorphism is
    composed on the right, so the map w -> images is a homomorphism for the
    package-wide "apply left factor first" convention.  The action is
    faithful, so equal images mean equal braids; the images grow
    exponentially with word length, so :func:`artin_equal` does not use it.
    """
    if w.tag != TAG_B3:
        raise ValueError("artin_images expects a braid word")
    images = [[1], [2], [3]]
    for g, s in w.letters:
        template = _ARTIN[(g, s)]
        images = [_subst(t, images) for t in template]
    return tuple(tuple(im) for im in images)


# ---------------------------------------------------------------------------
# B3 -> SL2(Z) x Z: the exact equality oracle

# The matrix (p, q, r, s) = [[p, q], [r, s]] of each sigma-letter.
_SL2Z = {
    (0, 1): (1, 1, 0, 1),
    (0, -1): (1, -1, 0, 1),
    (1, 1): (1, 0, -1, 1),
    (1, -1): (1, 0, 1, 1),
}


def _sl2z_key(w: FreeWord) -> tuple[int, int, int, int, int]:
    """(a, b, c, d, e): the matrix [[a, b], [c, d]] of the braid ``w`` in
    SL2(Z), a product of letter matrices read left to right, and its
    exponent sum e."""
    if w.tag != TAG_B3:
        raise ValueError("artin_equal expects braid words")
    a, b, c, d, e = 1, 0, 0, 1, 0
    for lt in w.letters:
        p, q, r, s = _SL2Z[lt]
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
        e += lt[1]
    return a, b, c, d, e


def artin_equal(u: FreeWord, v: FreeWord) -> bool:
    """True iff u = v in B3, decided in SL2(Z) x Z.

    sigma_1 maps to [[1, 1], [0, 1]] and sigma_2 to [[1, 0], [-1, 1]]; both
    sides of the braid relation map to delta's matrix [[0, 1], [-1, 0]], so
    this is a homomorphism B3 -> SL2(Z).  It is onto, and its kernel is
    generated by delta^4 (Kassel-Turaev, Braid Groups, GTM 247, section 1.5;
    delta^2 maps to -I).  The exponent sum is a homomorphism B3 -> Z, and
    delta^(4k) has exponent sum 12k.  So a braid that maps to (I, 0) is
    some delta^(4k) with 12k = 0, the identity: the pair of maps is
    injective, and equal keys mean u = v in B3.  Raises ``ValueError`` on a
    word that is not a braid word.
    """
    return _sl2z_key(u) == _sl2z_key(v)


def random_word(rng, tag: str, max_len: int) -> FreeWord:
    """Uniform-length random word; reduction may shorten it further."""
    length = rng.randrange(max_len + 1)
    letters = tuple(
        (rng.randrange(2), rng.choice((1, -1))) for _ in range(length)
    )
    return FreeWord(tag, letters)


def all_reduced_words(tag: str, max_len: int):
    """Yield every freely reduced word of length <= max_len (DFS order)."""
    alphabet = [(g, s) for g in (0, 1) for s in (1, -1)]
    yield empty_word(tag)

    def rec(prefix: list[Letter], depth: int):
        for lt in alphabet:
            if prefix and prefix[-1] == (lt[0], -lt[1]):
                continue
            prefix.append(lt)
            yield FreeWord(tag, tuple(prefix))
            if depth > 1:
                yield from rec(prefix, depth - 1)
            prefix.pop()

    if max_len >= 1:
        yield from rec([], max_len)


def _selfcheck():  # pragma: no cover - exercised via tests
    """Check every row of the coset table as an identity in B3."""
    letters = [(g, s) for g in (0, 1) for s in (1, -1)]
    assert set(COSET_TABLE) == {(lab, lt) for lab in TRANSVERSAL_LABELS for lt in letters}
    for (label, lt), (f2, dc, new_label) in COSET_TABLE.items():
        lhs = TRANSVERSAL_WORDS[label] * FreeWord(TAG_B3, (lt,))
        rhs = B3NormalForm(FreeWord(TAG_F2, f2), dc, new_label).reassemble()
        assert artin_equal(lhs, rhs), (label, lt)
