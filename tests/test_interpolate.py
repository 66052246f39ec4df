"""Interpolation operator: contractions, S images, log, shifts, expansions."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from izeta.algebra import (
    FormalSum,
    Index,
    RatPoly,
    T,
    Word,
    _normal_sum,
    _t_free_sum,
    harmonic_product,
    star_product,
    substitute_t,
    t_harmonic_product,
)
from izeta.identities import _sum_formula_batch
from izeta.interpolate import (
    _s_t_graded,
    _s_t_lists,
    _s_t_word,
    _taylor_parts,
    d_dt,
    enumerate_contractions,
    index_expansions,
    log_s,
    s_alpha,
    s_poly,
    s_t,
    taylor_shift,
    zeta_t_words,
)
from izeta.interpolate import Contraction
from izeta.numeric import eval_element, mzsv

from helpers import (
    assert_normal_form,
    dictpoly_to_sum,
    interpolation_by_recursion,
    merge_bitmask_contractions,
    star_fillings,
    words_up_to_weight,
)

ONE = FormalSum.unit()


def w(*letters):
    return FormalSum.from_word(Word(letters))


word_st = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5).map(tuple)


# ------------------------------------------------------------ contractions

def test_contractions_of_length_two_word():
    got = [(c.sigma, word) for c, word in enumerate_contractions(Word((2, 1)))]
    assert got == [(0, Word((2, 1))), (1, Word((3,)))]


def test_contractions_of_length_three_word_in_stated_order():
    got = [(c.sigma, word) for c, word in enumerate_contractions(Word((1, 1, 1)))]
    assert got == [
        (0, Word((1, 1, 1))),
        (1, Word((1, 2))),
        (1, Word((2, 1))),
        (2, Word((3,))),
    ]


def test_contractions_of_single_letter():
    got = [(c.sigma, word) for c, word in enumerate_contractions(Word((5,)))]
    assert got == [(0, Word((5,)))]


def test_contractions_match_the_merged_gap_bitmask_order():
    for word in words_up_to_weight(7):
        got = [(c.marks, c.sigma, image) for c, image in enumerate_contractions(word)]
        assert got == merge_bitmask_contractions(word.letters), word


def test_contractions_of_unit_rejected():
    with pytest.raises(ValueError, match="no contractions"):
        enumerate_contractions(Word(()))


@given(word_st)
@settings(max_examples=60, deadline=None)
def test_contraction_count_sigma_and_weight(letters):
    word = Word(letters)
    entries = enumerate_contractions(word)
    assert len(entries) == 2 ** (len(letters) - 1)
    for contraction, contracted in entries:
        assert contracted.weight == word.weight
        assert contraction.sigma == len(letters) - len(contracted.letters)


# ------------------------------------------------------------------- s_t

def test_s_t_worked_examples():
    assert s_t(w(2, 1)) == w(2, 1) + T * w(3)
    assert s_t(w(1, 1, 1)) == w(1, 1, 1) + T * (w(1, 2) + w(2, 1)) + (T * T) * w(3)
    assert s_t(ONE) == ONE
    assert s_t(w(5)) == w(5)


@given(word_st)
@settings(max_examples=80, deadline=None)
def test_s_t_agrees_with_head_recursion(letters):
    assert s_t(FormalSum.from_word(Word(letters))) == dictpoly_to_sum(
        interpolation_by_recursion(letters)
    )


def test_s_t_is_linear_over_polynomial_coefficients():
    e = T * w(2, 1) + 3 * w(1, 1)
    assert s_t(e) == T * s_t(w(2, 1)) + 3 * s_t(w(1, 1))


def test_s_alpha_examples():
    assert s_alpha(w(2, 1, 1), 0) == w(2, 1, 1)
    assert s_alpha(w(2, 1), 1) == w(2, 1) + w(3)
    assert s_alpha(w(3, 3), Fraction(1, 2)) == w(3, 3) + Fraction(1, 2) * w(6)


def test_s_poly_with_polynomial_parameter_inverts_s_t():
    for word in words_up_to_weight(6):
        image = s_t(FormalSum.from_word(word))
        assert s_poly(image, RatPoly({1: -1})) == FormalSum.from_word(word)


# ------------------------------------------------------------------ log_s

def test_log_s_examples():
    assert log_s(Word((1, 1, 1))) == w(1, 2) + w(2, 1)
    assert log_s(Word((5,))) == FormalSum.zero()
    assert log_s(Word((2, 1))) == w(3)


def test_log_series_equals_t_times_log_s():
    for word in words_up_to_weight(6, max_length=6):
        e = FormalSum.from_word(word)
        series = FormalSum.zero()
        power = e
        for j in range(1, len(word.letters) + 1):
            power = s_t(power) - power
            series = series + Fraction((-1) ** (j + 1), j) * power
        assert series == T * log_s(word)


# ----------------------------------------------------------- derivatives

def test_d_dt_examples():
    assert d_dt(RatPoly({2: 1}) * w(3)) == RatPoly({1: 2}) * w(3)
    assert d_dt(w(2, 1) + T * w(3)) == w(3)
    assert d_dt(w(4, 2)) == FormalSum.zero()


def test_derivative_law_on_small_words():
    for word in words_up_to_weight(6, max_length=6):
        e = FormalSum.from_word(word)
        assert d_dt(s_t(e)) == s_t(log_s(word))


# ----------------------------------------------------------- taylor_shift

def test_taylor_shift_examples():
    e = w(2, 1) + T * w(3)
    assert taylor_shift(e, 0) == [w(2, 1), w(3)]
    assert taylor_shift(e, 1) == [w(2, 1) + w(3), w(3)]
    assert taylor_shift(w(4), Fraction(2, 3)) == [w(4)]


@given(word_st, st.fractions(min_value=-2, max_value=2, max_denominator=4))
@settings(max_examples=40, deadline=None)
def test_taylor_shift_reconstructs_the_element(letters, alpha):
    e = s_t(FormalSum.from_word(Word(letters)))
    pieces = taylor_shift(e, alpha)
    shifted = RatPoly({0: -alpha, 1: 1})  # t - alpha
    rebuilt = FormalSum.zero()
    power = RatPoly({0: 1})
    for piece in pieces:
        assert piece.is_t_free()
        rebuilt = rebuilt + power * piece
        power = power * shifted
    assert rebuilt == e


# ----------------------------------------------------- index expansions

def test_index_expansions_of_two_one():
    got = sorted((idx.parts, sigma) for idx, sigma in index_expansions(Index((2, 1))))
    assert got == [((2, 1), 0), ((3,), 1)]


def test_index_expansions_match_filling_oracle():
    for parts in [(2,), (2, 1), (2, 2), (3, 1, 2), (2, 1, 1, 1)]:
        got = sorted((idx.parts, sigma) for idx, sigma in index_expansions(Index(parts)))
        assert got == sorted(star_fillings(parts))


def test_zeta_t_words_equals_operator_image():
    for parts in [(2,), (2, 1), (4, 1, 2), (2, 1, 1)]:
        assert zeta_t_words(Index(parts)) == s_t(FormalSum.from_word(Index(parts).to_word()))


def test_zeta_t_words_returns_a_sum_of_its_own():
    # emptying one caller's result must not empty anyone else's
    try:
        zeta_t_words(Index((2, 1))).terms.clear()
        assert zeta_t_words(Index((2, 1))) == w(2, 1) + T * w(3)
        assert s_t(w(2, 1)) == w(2, 1) + T * w(3)
        res = mzsv((2, 1), 1000)  # zeta*(2,1) = 2 zeta(3)
        assert abs(res.value - 2 * 1.2020569031595942) <= res.err
    finally:
        _s_t_word.cache_clear()


# ------------------------------------------------- operator vs products

@given(word_st, word_st)
@settings(max_examples=25, deadline=None)
def test_interpolation_intertwines_the_products(u, v):
    eu, ev = FormalSum.from_word(Word(u)), FormalSum.from_word(Word(v))
    assert s_t(t_harmonic_product(eu, ev)) == harmonic_product(s_t(eu), s_t(ev))


# ------------------------------------- brute-force oracles on raw tuples


def brute_contractions(letters):
    """Every merge pattern of a letter tuple, by bitmask over the gaps:
    {contracted tuple: {merges: multiplicity}}."""
    n = len(letters)
    out = {}
    for mask in range(1 << max(n - 1, 0)):
        blocks = [letters[0]]
        for gap in range(1, n):
            if (mask >> (gap - 1)) & 1:
                blocks[-1] += letters[gap]
            else:
                blocks.append(letters[gap])
        poly = out.setdefault(tuple(blocks), {})
        sigma = n - len(blocks)
        poly[sigma] = poly.get(sigma, 0) + 1
    return out


def brute_s_alpha(terms, alpha):
    """Sum of c(alpha) alpha^sigma over every contraction of every term of
    {letter tuple: {t exponent: coefficient}}, the unit mapping to itself;
    {letter tuple: Fraction}."""
    out = {}
    for letters, poly in terms.items():
        value = sum(Fraction(c) * Fraction(alpha) ** e for e, c in poly.items())
        image = brute_contractions(letters) if letters else {(): {0: 1}}
        for word, merges in image.items():
            for sigma, mult in merges.items():
                out[word] = out.get(word, 0) + mult * value * Fraction(alpha) ** sigma
    return {word: c for word, c in out.items() if c}


def brute_substitute(terms, alpha):
    """Each coefficient of {letter tuple: {t exponent: coefficient}} at
    t = alpha; {letter tuple: Fraction}, zeros dropped."""
    out = {}
    for letters, poly in terms.items():
        out[letters] = sum(Fraction(c) * Fraction(alpha) ** e for e, c in poly.items())
    return {word: c for word, c in out.items() if c}


def _poly_mul(p, q):
    """Product of two {t exponent: coefficient} dicts, zeros dropped."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def brute_s_poly(terms, param):
    """Sum of c(t) param(t)^sigma over every contraction of every term of
    {letter tuple: {t exponent: coefficient}}, param a {t exponent:
    coefficient} dict; {letter tuple: {t exponent: coefficient}}."""
    out = {}
    for letters, poly in terms.items():
        for word, merges in brute_contractions(letters).items():
            acc = out.setdefault(word, {})
            for sigma, mult in merges.items():
                power = {0: mult}
                for _ in range(sigma):
                    power = _poly_mul(power, param)
                for e, c in _poly_mul(poly, power).items():
                    acc[e] = acc.get(e, 0) + c
    out = {word: {e: c for e, c in p.items() if c} for word, p in out.items()}
    return {word: p for word, p in out.items() if p}


def single_merges(terms):
    """The single-merge operator on {letter tuple: coefficient}."""
    out = {}
    for letters, c in terms.items():
        for i in range(len(letters) - 1):
            word = letters[:i] + (letters[i] + letters[i + 1],) + letters[i + 2 :]
            out[word] = out.get(word, 0) + c
    return {word: c for word, c in out.items() if c}


def as_dicts(e):
    return {u.letters: dict(p.coeffs) for u, p in e.terms.items()}


def as_constants(e):
    assert e.is_t_free()
    return {u.letters: p.constant() for u, p in e.terms.items()}


def test_operator_on_every_word_up_to_weight_9_matches_brute_force():
    words = words_up_to_weight(9)
    assert len(words) == 511
    for word in words:
        expected = brute_contractions(word.letters)
        image = _s_t_word(word)
        assert len(set(image)) == len(image) == 2 ** (len(word) - 1)
        assert {u.letters: {len(word) - len(u): 1} for u in image} == expected
        assert as_dicts(s_t(FormalSum.from_word(word))) == expected
        assert as_dicts(zeta_t_words(Index(word.letters))) == expected


ALPHAS = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-2, 5)]


# whole sums for the transform over boundary sets: words of one weight
# whose boundary sets nest at two and three depths, so that images meet,
# the unit alone and among other words, Fraction coefficients of several
# degrees, and [2,1] - t[3], whose image is just [2,1]
WHOLE_SUMS = {
    "shared-prefixes": {
        (2, 1, 1): {0: 1}, (2, 1, 3): {1: -2}, (2, 1, 1, 1): {0: 3, 2: 1},
        (2, 2, 1): {0: 5}, (1, 1): {1: 1}, (1, 2, 1): {0: -1}, (1, 1, 2, 1): {3: 2},
    },
    "unit": {(): {0: 1}},
    "unit-and-words": {(): {0: 2, 1: -1}, (1,): {0: 1}, (1, 1): {2: 1}, (3, 1): {0: -4}},
    "fractions": {
        (1, 1, 1): {0: Fraction(1, 2), 2: Fraction(-3, 7)},
        (1, 1, 2): {1: Fraction(5, 3)},
        (1, 2, 1): {0: Fraction(-1, 6), 4: 2},
        (3,): {0: Fraction(2, 9), 1: 1},
    },
    "cancelling": {(2, 1): {0: 1}, (3,): {1: -1}},
    "weight-7": {
        word.letters: {i % 3: Fraction(i % 5 - 2, i % 4 + 1) or 1}
        for i, word in enumerate(words_up_to_weight(7))
    },
}


def brute_s_t(terms):
    """S^t of {letter tuple: {t exponent: coefficient}}, word by word over
    brute-force contractions; the unit maps to itself."""
    out = {}
    for letters, poly in terms.items():
        image = brute_contractions(letters) if letters else {(): {0: 1}}
        for word, merges in image.items():
            acc = out.setdefault(word, {})
            for sigma, mult in merges.items():
                for e, c in poly.items():
                    acc[e + sigma] = acc.get(e + sigma, 0) + mult * c
    out = {word: {e: c for e, c in p.items() if c} for word, p in out.items()}
    return {word: p for word, p in out.items() if p}


@pytest.mark.parametrize("name", sorted(WHOLE_SUMS))
def test_s_t_of_a_whole_sum_matches_brute_force(name):
    terms = WHOLE_SUMS[name]
    _s_t_word.cache_clear()  # so that any entry stored below is stored fresh
    got = s_t(dictpoly_to_sum(terms))
    assert_normal_form(got)
    assert as_dicts(got) == brute_s_t(terms)
    if name == "cancelling":
        assert as_dicts(got) == {(2, 1): {0: 1}}
    # the memo entry of every tail of these words holds Words, whichever
    # call stored it first
    for letters in terms:
        for i in range(len(letters)):
            image = _s_t_word(Word(letters[i:]))
            assert type(image) is tuple and all(type(u) is Word for u in image)


def test_the_graded_recursion_adds_a_word_named_twice():
    # a word named twice is one boundary set, its coefficients added
    # before the pass; so is the unit, which has no boundary to move
    got = _s_t_graded([((1, 2), {0: 1}), ((1, 2), {0: 1})])
    once = interpolation_by_recursion((1, 2))
    assert {tuple(u): p for u, p in got.items()} == {
        u: {e: 2 * c for e, c in p.items()} for u, p in once.items()
    }
    got = _s_t_graded([((), {0: 1}), ((2, 1, 1), {1: 3}), ((), {2: 1}), ((2, 1, 1), {0: 1})])
    expected = brute_s_t({(): {0: 1, 2: 1}, (2, 1, 1): {0: 1, 1: 3}})
    assert {tuple(u): {e: c for e, c in p.items() if c} for u, p in got.items()} == expected


def brute_s_t_of_list(items):
    """S^t of the sum of the (letter tuple, {t exponent: coefficient})
    pairs `items`, a word possibly named more than once, over the
    brute-force contractions of `merge_bitmask_contractions`."""
    out = {}
    for letters, poly in items:
        image = merge_bitmask_contractions(letters) if letters else [((0,), 0, ())]
        for _, sigma, blocks in image:
            acc = out.setdefault(blocks, {})
            for e, c in poly.items():
                acc[e + sigma] = acc.get(e + sigma, 0) + c
    out = {word: {e: c for e, c in p.items() if c} for word, p in out.items()}
    return {word: p for word, p in out.items() if p}


# sums listed term by term: a word named twice, alone and among words of
# several weights and the unit, and words of three weights that share the
# boundary 1, each merged there within its own weight
LISTED_SUMS = {
    "alone": [((2, 1, 1), {0: 1}), ((2, 1, 1), {0: 1})],
    "among-shared-prefixes": [
        ((2, 1, 1), {0: 1}), ((2, 1, 3), {1: -2}), ((2, 1, 1), {0: 3, 2: 1}),
        ((2, 2), {0: 5}), ((1,), {0: 1}), ((), {1: 1}), ((1, 2), {0: 1}),
        ((1, 3), {0: Fraction(-1, 2)}), ((), {0: 2}), ((1,), {3: 1}),
    ],
    "distinct-second-letters": [((1, 2), {0: 1}), ((1, 3), {1: 1}), ((1, 4, 1), {0: 2})],
}


@pytest.mark.parametrize("name", sorted(LISTED_SUMS))
def test_the_graded_recursion_matches_brute_force_on_listed_sums(name):
    items = LISTED_SUMS[name]
    got = {tuple(u): {e: c for e, c in p.items() if c} for u, p in _s_t_graded(items).items()}
    assert {u: p for u, p in got.items() if p} == brute_s_t_of_list(items)


@st.composite
def listed_sum_st(draw):
    """A list of (letter tuple, {degree: Fraction}) terms over a few words
    of mixed weights, the unit and letters up to 10**18 among them, each
    word possibly named more than once, with signed coefficients."""
    letter = st.one_of(st.integers(1, 3), st.integers(1, 10**18))
    words = draw(st.lists(st.lists(letter, max_size=5).map(tuple), min_size=1, max_size=4))
    poly = st.dictionaries(
        st.integers(0, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=3
    )
    return draw(st.lists(st.tuples(st.sampled_from(words), poly), max_size=7))


@given(listed_sum_st())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_the_transform_and_s_t_match_brute_force_on_drawn_sums(items):
    expected = brute_s_t_of_list(items)
    before = [(letters, dict(poly)) for letters, poly in items]
    got = {tuple(u): {e: c for e, c in p.items() if c} for u, p in _s_t_graded(items).items()}
    assert {u: p for u, p in got.items() if p} == expected
    assert items == before  # no input dict changed
    whole = FormalSum([(Word(letters), RatPoly(poly)) for letters, poly in items])
    assert as_dicts(s_t(whole)) == expected


def test_s_t_of_words_with_huge_letters_matches_brute_force():
    # boundaries 1, 10**18 and 10**18 + 1: a code with one bit per unit of
    # weight could not be built here
    terms = {(10**18, 1): {0: 1}, (1, 10**18): {0: 1}, (10**18, 1, 1): {0: 1}}
    got = s_t(dictpoly_to_sum(terms))
    assert_normal_form(got)
    assert as_dicts(got) == brute_s_t(terms)


def test_s_t_lists_splits_lists_of_mixed_lengths_and_weights_by_degree():
    word_lists = [
        [(2, 1, 1), (1, 3), (2, 1, 1), (4,)],
        [],
        [(5,), (1, 1)],
        [(1, 1, 1, 1, 1), (3, 2), (1, 10**18, 1), ()],
        [()],
    ]
    got = list(_s_t_lists(word_lists))
    assert len(got) == len(word_lists)
    for words, side in zip(word_lists, got):
        image = brute_s_t_of_list([(u, {0: 1}) for u in words])
        expected = [{} for _ in range(max(map(len, words), default=0) or 1)]
        for u, p in image.items():
            for deg, c in p.items():
                expected[deg][u] = c
        assert side == expected, words
        assert all(list(part) == sorted(part) for part in side), words


@pytest.mark.parametrize(
    "make, letters",
    [(tuple, ()), (tuple, (3,)), (tuple, (2, 1, 3, 1)), (Index, (3,)), (Index, (2, 1, 3, 1))],
)
def test_the_memo_stores_words_whatever_it_is_called_with(make, letters):
    _s_t_word.cache_clear()
    first = _s_t_word(make(letters))
    later = _s_t_word(Word(letters))
    assert later is first  # the entry the first call stored
    expected = [blocks for _, _, blocks in merge_bitmask_contractions(letters)] if letters else [()]
    assert sorted(first) == sorted(expected)
    for i in range(len(letters) + 1):
        image = _s_t_word(Word(letters[i:]))
        assert type(image) is tuple and all(type(u) is Word for u in image), letters[i:]


@pytest.mark.parametrize(
    "param",
    [{0: 1, 1: -1}, {2: 1}, {0: Fraction(3, 2)}, {}],
    ids=["1-t", "t^2", "3/2", "0"],
)
def test_s_poly_matches_brute_force(param):
    # coefficients in t, so existing degrees and the parameter's mix; the
    # whole sum also lets images of different words meet and cancel
    terms = {}
    for i, word in enumerate(words_up_to_weight(7)):
        poly = {0: Fraction(i % 5 - 2, 3), 1: i % 3 - 1, 2: Fraction(1, i + 1)}
        terms[word.letters] = {e: c for e, c in poly.items() if c}
    for chunk in [{letters: poly} for letters, poly in terms.items()] + [terms]:
        got = s_poly(dictpoly_to_sum(chunk), RatPoly(param))
        assert_normal_form(got)
        assert as_dicts(got) == brute_s_poly(chunk, param)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_s_alpha_matches_brute_force(alpha):
    for word in words_up_to_weight(7):
        got = s_alpha(FormalSum.from_word(word), alpha)
        assert as_constants(got) == brute_s_alpha({word.letters: {0: 1}}, alpha)
    # polynomial coefficients are evaluated at alpha too
    terms = {(2, 1, 1): {0: -3, 2: 1}, (1, 3): {0: Fraction(1, 2)}, (4,): {1: 5}}
    e = FormalSum.zero()
    for letters, poly in terms.items():
        e = e + FormalSum.from_word(Word(letters), RatPoly(poly))
    assert as_constants(s_alpha(e, alpha)) == brute_s_alpha(terms, alpha)


# plain ints, a tall fraction and a negative one
INTEGER_AND_TALL_ALPHAS = [2, -1, Fraction(355, 113), Fraction(-2, 7)]

# coefficients over several unrelated denominators, some in t
MIXED_DENOMINATORS = {
    (2, 1, 1): {0: Fraction(-3, 4), 2: Fraction(5, 6)},
    (1, 3): {0: Fraction(1, 2), 1: Fraction(-2, 9)},
    (4,): {1: 5},
    (1, 1, 2, 1): {0: Fraction(7, 10)},
    (3, 2): {3: Fraction(-1, 11), 0: 2},
}


@pytest.mark.parametrize("alpha", INTEGER_AND_TALL_ALPHAS)
def test_s_alpha_and_substitute_t_over_mixed_denominators(alpha):
    e = dictpoly_to_sum(MIXED_DENOMINATORS)
    for got, expected in (
        (s_alpha(e, alpha), brute_s_alpha(MIXED_DENOMINATORS, alpha)),
        (substitute_t(e, alpha), brute_substitute(MIXED_DENOMINATORS, alpha)),
    ):
        assert_normal_form(got)
        assert as_constants(got) == expected


@pytest.mark.parametrize("alpha", INTEGER_AND_TALL_ALPHAS)
def test_s_alpha_drops_a_word_whose_image_cancels(alpha):
    # S^alpha(1,1) = (1,1) + alpha (2): the word (2) cancels, whether its
    # coefficient is -alpha or -t evaluated at alpha
    terms = {(1, 1): {0: 1}, (2,): {0: -alpha}}
    for e in (w(1, 1) - alpha * w(2), w(1, 1) - T * w(2)):
        got = s_alpha(e, alpha)
        assert_normal_form(got)
        assert Word((2,)) not in got.terms
        assert as_constants(got) == brute_s_alpha(terms, alpha) == {(1, 1): 1}


# s_alpha at 0 against substitute_t at 0: a sum over mixed denominators
# with a coefficient that vanishes at 0, and an integer sum whose words
# are contractions of each other, the unit among them
AT_ZERO = {
    "mixed-denominators": MIXED_DENOMINATORS,
    "integers": {
        (1, 1): {0: 1}, (2,): {0: -3, 1: 2}, (1, 1, 1): {1: 4}, (2, 1): {0: 2},
        (): {0: 5}, (3,): {0: 7},
    },
    "zero": {},
}


@pytest.mark.parametrize("name", sorted(AT_ZERO))
@pytest.mark.parametrize("zero", [0, Fraction(0)], ids=["int", "Fraction"])
def test_s_alpha_at_zero_is_substitution_at_zero(name, zero):
    terms = AT_ZERO[name]
    e = dictpoly_to_sum(terms)
    got, expected = s_alpha(e, zero), substitute_t(e, 0)
    assert_normal_form(got)
    # term by term, with the same coefficient types: Fractions as soon as
    # any coefficient of e has a denominator above 1, ints otherwise
    fractional = any(Fraction(c).denominator > 1 for p in terms.values() for c in p.values())
    kind = Fraction if fractional else int
    assert {u: [(type(c), c) for c in p.coeffs.values()] for u, p in got.terms.items()} == {
        u: [(type(c), c) for c in p.coeffs.values()] for u, p in expected.terms.items()
    }
    assert all(type(p.constant()) is kind for p in got.terms.values())
    assert as_constants(got) == brute_substitute(terms, 0)


@pytest.mark.parametrize("alpha", INTEGER_AND_TALL_ALPHAS)
def test_substitute_t_on_polynomial_coefficients(alpha):
    # (3) has the coefficient t - alpha, which vanishes at alpha
    terms = {
        (3,): {1: 1, 0: -alpha},
        (2, 1): {2: Fraction(1, 2), 0: 3},
        (1, 2, 2): {4: Fraction(-5, 7), 1: Fraction(2, 3)},
    }
    got = substitute_t(dictpoly_to_sum(terms), alpha)
    assert_normal_form(got)
    assert Word((3,)) not in got.terms
    assert as_constants(got) == brute_substitute(terms, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("letters", [(2, 1, 3, 1, 1), (1, 2, 1, 1), (3, 1, 2)])
def test_taylor_shift_coefficients_are_powers_of_the_log(letters, alpha):
    # S^t = exp(t L) with L the single-merge operator, so the k-th Taylor
    # coefficient of S^t(x) at alpha is S^alpha(L^k x) / k!.
    element = {}
    for word, merges in brute_contractions(letters).items():
        element[word] = {sigma: Fraction(m) for sigma, m in merges.items()}
    parts = taylor_shift(dictpoly_to_sum(element), alpha)
    assert len(parts) == len(letters)
    power = {letters: Fraction(1)}
    for k, part in enumerate(parts):
        expected = brute_s_alpha({u: {0: c} for u, c in power.items()}, alpha)
        assert as_constants(part) == {u: c / factorial(k) for u, c in expected.items()}
        power = single_merges(power)
    assert power == {}


def test_taylor_shift_of_zero_and_of_constants():
    zero = FormalSum.zero()
    assert taylor_shift(zero, Fraction(1, 3)) == [zero]
    assert taylor_shift(zero, 0) == [zero]
    assert taylor_shift(RatPoly({2: 1}) * w(3), 0) == [zero, zero, w(3)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Contraction((1, 2), 0), "invalid contraction marks (1, 2)"),
        (lambda: Contraction((0, 2), 0), "sigma inconsistent with marks"),
        (lambda: log_s(Word()), "unit has no contractions"),
    ],
)
def test_contractions_refuse_bad_marks_and_the_unit(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


# ------------------------------------------------- shared coefficient dicts

SHARED_ALPHAS = [0, 1, -1, Fraction(355, 113), Fraction(-2, 7), Fraction(10**20, 3)]

# (1/6 - t^2/2) on words of lengths 0 to 3, one stored dict for all four,
# so that s_alpha needs that dict's values at four lengths, a short word
# coming first
ACROSS_LENGTHS = {w: {0: Fraction(1, 6), 2: Fraction(-1, 2)} for w in [(4,), (2, 1, 1), (), (3, 1)]}
# S^t of (1/2 + 3t)[2,1,1,2], which stores one dict per sigma
ONE_WORD = ((2, 1, 1, 2), {0: Fraction(1, 2), 1: 3})
# a t-free sum over 10 whose words share one dict per value
T_FREE = {(2, 1): 4, (3,): 4, (2, 1, 1): -6, (4,): -6, (): 4, (2, 2): 5}


def shared_sums():
    """{name: (sum, distinct stored dicts, its terms as {letter tuple:
    {t exponent: coefficient}})}; the terms are written out, or come from
    brute-force contractions, not from the sums."""
    letters, poly = ONE_WORD
    one_word = s_t(FormalSum.from_word(Word(letters), RatPoly(poly)))
    c = {0: 1, 2: -3}  # over 6
    return {
        "across-lengths": (_normal_sum({Word(u): c for u in ACROSS_LENGTHS}, 6), 1, ACROSS_LENGTHS),
        "s_t-of-one-word": (one_word, len(letters), brute_s_t({letters: poly})),
        "t-free": (_t_free_sum(10, T_FREE), 3, {u: {0: Fraction(x, 10)} for u, x in T_FREE.items()}),
    }


@pytest.mark.parametrize("name", sorted(shared_sums()))
@pytest.mark.parametrize("alpha", SHARED_ALPHAS, ids=str)
def test_sums_with_shared_dicts_match_brute_force(name, alpha):
    e, distinct, terms = shared_sums()[name]
    assert len({id(c) for c in e._graded.values()}) == distinct < len(e)
    for got, expected in (
        (s_alpha(e, alpha), brute_s_alpha(terms, alpha)),
        (substitute_t(e, alpha), brute_substitute(terms, alpha)),
    ):
        assert_normal_form(got)
        assert as_constants(got) == expected
    # the same rational sum of strict values, so the same rounding and
    # bound, to the bit, as the t-free sum of the brute-force coefficients
    t_free = dictpoly_to_sum({u: {0: c} for u, c in brute_substitute(terms, alpha).items()})
    got, expected = eval_element(e, alpha, 300), eval_element(t_free, 0, 300)
    assert (got.value.hex(), got.err.hex()) == (expected.value.hex(), expected.err.hex())


@pytest.mark.parametrize("n", [1, 2, 5])
def test_s_t_of_one_word_stores_one_dict_per_sigma_that_nothing_changes(n):
    letters = (2,) + (1,) * (n - 1)
    e = s_t(RatPoly({0: Fraction(1, 2), 1: -3}) * w(*letters))
    ids = {}  # sigma -> ids of the dicts of the words with that sigma
    for u, c in e._graded.items():
        ids.setdefault(n - len(u), set()).add(id(c))
    assert len(e) == 2 ** (n - 1) and sorted(ids) == list(range(n))
    assert all(len(group) == 1 for group in ids.values())
    dicts = {id(c): c for c in e._graded.values()}
    snapshot = {i: dict(c) for i, c in dicts.items()}
    other = s_t(w(3, 1) + w(2, 1, 1)) + T * w(*letters)
    for f in (e, other):
        e - f, f - e
        for product in (harmonic_product, star_product, t_harmonic_product):
            product(e, f), product(f, e)
    s_t(e), s_t(e + other)
    for alpha in (0, -1, Fraction(355, 113)):
        s_alpha(e, alpha), substitute_t(e, alpha), taylor_shift(e, alpha)
    # the sum formula's depth-n side is S^t of the same word
    sides = next(_sum_formula_batch(n + 1, [n]))
    _taylor_parts(sides, Fraction(-2, 7))
    assert {i: dict(c) for i, c in dicts.items()} == snapshot
    assert all(dicts[id(c)] is c for c in e._graded.values())
