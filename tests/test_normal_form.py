"""Every public exact operation returns its result in normal form, also
when terms cancel, and the public constructors still reject bad input."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from izeta.algebra import (
    FormalSum,
    RatPoly,
    T,
    Word,
    _harmonic_ww,
    _normal_sum,
    _poly,
    _star_ww,
    _t_harmonic_ww,
    harmonic_product,
    parse_formal_sum,
    star_product,
    substitute_t,
    t_harmonic_product,
)
from izeta.identities import cyclic_C, cyclic_Sigma, sum_words
from izeta.interpolate import _s_t_word, d_dt, log_s, s_alpha, s_poly, s_t, taylor_shift

from helpers import assert_normal_form, merge_bitmask_contractions, quasi_shuffle, t_quasi_shuffle

PRODUCTS = [harmonic_product, star_product, t_harmonic_product]

# few distinct coefficients and short words over three letters, so that
# terms often meet and cancel
coeff_st = st.sampled_from(
    [1, -1, 2, Fraction(1, 2), Fraction(-1, 3), T, -T, 1 - T, T * T - T, 2 * T - 1]
)
letters_st = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(tuple)
element_st = st.lists(st.tuples(letters_st, coeff_st), max_size=5).map(
    lambda pairs: FormalSum((Word(u), c) for u, c in pairs)
)
nonempty_st = st.lists(
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4
).map(Word)
alpha_st = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=7),
)


def w(*letters):
    return FormalSum.from_word(Word(letters))


def assert_all_normal(*results):
    for r in results:
        for e in r if isinstance(r, list) else [r]:
            assert_normal_form(e)


@given(element_st, element_st, alpha_st, coeff_st)
@settings(max_examples=60, deadline=None)
def test_operations_on_elements_stay_in_normal_form(x, y, alpha, param):
    assert_all_normal(
        *(product(x, y) for product in PRODUCTS),
        x + y,
        x - y,
        x - x,
        s_t(x),
        s_alpha(x, alpha),
        s_poly(x, param),
        s_poly(x, 0),
        substitute_t(x, alpha),
        taylor_shift(x, alpha),
        d_dt(x),
    )


@given(nonempty_st, st.integers(min_value=2, max_value=7), st.data())
@settings(max_examples=40, deadline=None)
def test_word_operations_stay_in_normal_form(word, k, data):
    n = data.draw(st.integers(min_value=1, max_value=k - 1))
    assert_all_normal(log_s(word), cyclic_C(word), cyclic_Sigma(word), sum_words(k, n))


@pytest.mark.parametrize("alpha", [2, -1, Fraction(1, 3), Fraction(355, 113)])
def test_cancelling_inputs_leave_no_zero_behind(alpha):
    c = Fraction(1, 2)
    one = FormalSum.unit()
    products = [product(w(1) + c * one, w(1) - c * one) for product in PRODUCTS]
    assert_all_normal(*products)
    # the word (1) meets the coefficients c and -c
    assert all(Word((1,)) not in e.terms for e in products)
    cases = [
        s_t(w(1, 1) - T * w(2)),
        s_alpha(w(1, 1) - alpha * w(2), alpha),
        substitute_t((T - alpha) * w(3), alpha),
        d_dt(w(2) + T * w(3)),
        s_poly(w(1, 1), 0),
        *taylor_shift((T - alpha) * w(2), alpha),
    ]
    assert_all_normal(*cases)
    assert [len(e) for e in cases] == [1, 1, 0, 1, 1, 0, 1]


def test_the_check_sees_a_stored_zero():
    assert_normal_form(_normal_sum({Word((2,)): _poly({0: 1})}))
    for bad in (
        _normal_sum({Word((2,)): _poly({})}),
        _normal_sum({Word((2,)): _poly({0: 0})}),
        _normal_sum({Word((2,)): _poly({0: 0.5})}),
        _normal_sum({(2,): _poly({0: 1})}),
    ):
        with pytest.raises(AssertionError):
            assert_normal_form(bad)


def test_public_constructors_still_reject_bad_input():
    with pytest.raises(TypeError):
        FormalSum({(1, 2): 1})
    with pytest.raises(TypeError):
        FormalSum({Word((1,)): 0.5})
    with pytest.raises(TypeError):
        RatPoly({0: 0.5})
    with pytest.raises(ValueError):
        RatPoly({-1: 1})
    with pytest.raises(ValueError):
        Word((0,))
    with pytest.raises(ValueError):
        Word((2, -1))


def test_formal_sum_adds_a_repeated_word():
    two = Word((2,))
    assert FormalSum([(two, T), (two, T)]) == FormalSum({two: 2 * T})
    assert FormalSum([(two, T), (two, T), (two, T)]) == FormalSum({two: 3 * T})
    assert FormalSum([(two, 1), (two, 1)]) == FormalSum({two: 2})
    assert FormalSum([(two, T), (two, 0), (two, -T)]).is_zero()


@given(st.lists(st.tuples(letters_st, coeff_st), max_size=6))
@settings(max_examples=60, deadline=None)
def test_formal_sum_coefficients_are_the_sums_of_the_given_ones(pairs):
    # coeff_st repeats the same RatPoly objects, so a word often meets
    # the very object it already holds
    expected = {}
    for u, c in pairs:
        for e, a in RatPoly(c).coeffs.items():
            expected[u, e] = expected.get((u, e), 0) + a
    got = {
        (v.letters, e): a
        for v, p in FormalSum((Word(u), c) for u, c in pairs).items()
        for e, a in p.coeffs.items()
    }
    assert got == {key: a for key, a in expected.items() if a}


def test_evaluate_returns_a_fraction():
    for p in (RatPoly(0), RatPoly(2), T, 1 - T):
        assert type(p.evaluate(Fraction(1, 2))) is Fraction
        assert type(p.evaluate(3)) is Fraction


def test_shared_coefficients_are_never_mutated():
    # s_alpha gives all words of one value one shared RatPoly: here the
    # three words of [1,1,1,1] with one merge share 1/2, and those of
    # [2,1,1] at -1 share the ints 1 and -1
    x = s_alpha(w(1, 1, 1, 1), Fraction(1, 2))
    y = s_alpha(w(2, 1, 1), -1) + x + T * w(2, 2) - (1 - T) * w(1, 1)
    for e in (x, y):
        assert len({id(p) for p in e.terms.values()}) < len(e)
    # each input with its terms dict and a copy of every coefficient dict
    copies = [(e, dict(e.terms), [dict(p.coeffs) for p in e.terms.values()]) for e in (x, y)]
    for e in (x, y):
        s_t(e)
        for alpha in (0, -2, Fraction(1, 2)):
            s_alpha(e, alpha)
            substitute_t(e, alpha)
            taylor_shift(e, alpha)
        for f in (x, y):
            for product in PRODUCTS:
                product(e, f)
            e + f
            e - f
        for scalar in (3, Fraction(-1, 2), 1 - T):
            e * scalar
    for e, terms, coeffs in copies:
        assert e.terms.keys() == terms.keys()
        assert all(e.terms[u] is p for u, p in terms.items())
        assert [p.coeffs for p in terms.values()] == coeffs


# -------------------------------------------- the memo tables stay intact

# each product with its word memo and an oracle on plain tuples:
# {letter tuple: {t exponent: int}} of the product of two letter tuples
MEMOS = [
    (harmonic_product, _harmonic_ww,
     lambda u, v: {x: {0: m} for x, m in quasi_shuffle(u, v, 1).items()}),
    (star_product, _star_ww,
     lambda u, v: {x: {0: m} for x, m in quasi_shuffle(u, v, -1).items()}),
    (t_harmonic_product, _t_harmonic_ww, t_quasi_shuffle),
]


def suffixes(sums):
    """Every suffix, the empty one included, of a word of one of `sums`."""
    return {u[i:] for e in sums for u in map(tuple, e.words()) for i in range(len(u) + 1)}


def test_memo_entries_survive_every_operation_on_the_sums_they_built():
    for _, memo, _ in MEMOS:
        memo.cache_clear()
    _s_t_word.cache_clear()
    half, third = Fraction(1, 2), Fraction(-2, 3)
    x = FormalSum({Word((2, 1)): half, Word((1, 1)): 1 - T, Word((3,)): T * T - third * T,
                   Word(()): 3})
    y = FormalSum({Word((1, 2)): third, Word((2, 1)): 2 * T, Word((1, 1, 1)): half - T})
    # sums the memos helped build; every operation below runs on them too,
    # while the memo entries, which share dicts with each other, are warm
    built = [product(e, f) for product, _, _ in MEMOS for e in (x, y) for f in (x, y)]
    sums = [x, y, *built, s_t(x), s_t(y), s_alpha(x, third)]
    printed = [str(e) for e in sums]
    multiplied = [(e, f) for e in (x, y) for f in (x, y)]
    for e in sums:
        s_t(e)
        for alpha in (0, -2, half):
            s_alpha(e, alpha)
            substitute_t(e, alpha)
            taylor_shift(e, alpha)
        for f in (x, y):
            for product, _, _ in MEMOS:
                product(e, f)
            multiplied.append((e, f))
            e + f
            e - f
        for scalar in (3, -half, 1 - T):
            e * scalar
    assert [str(e) for e in sums] == printed
    for _, memo, oracle in MEMOS:
        keys = {(u, v) for e, f in multiplied for u in suffixes([e]) for v in suffixes([f])}
        stored = memo.cache_info().currsize
        for u, v in keys:
            entry = memo(Word(u), Word(v))
            assert all(type(w) is Word for w in entry), (u, v)
            assert all(type(c) is int and c for p in entry.values() for c in p.values()), (u, v)
            assert {tuple(w): dict(p) for w, p in entry.items()} == oracle(u, v), (u, v)
        # every key was stored already, and nothing else was: each entry was checked
        assert memo.cache_info().currsize == stored == len(keys)
    keys = suffixes(sums)
    stored = _s_t_word.cache_info().currsize
    for u in keys:
        image = _s_t_word(Word(u))
        assert all(type(w) is Word for w in image), u
        expected = [blocks for _, _, blocks in merge_bitmask_contractions(u)] if u else [()]
        assert sorted(image) == sorted(expected), u
    assert _s_t_word.cache_info().currsize == stored == len(keys)


# ------------------------------------------ one value, one stored form


def as_exact_dicts(e):
    """{letter tuple: {t exponent: Fraction}} of a formal sum, read through
    its RatPoly coefficients."""
    return {tuple(w): {d: Fraction(c) for d, c in p.coeffs.items()} for w, p in e.items()}


def test_sums_of_one_value_are_equal_and_hash_alike_whatever_built_them():
    w21, w11, w2, w3 = (Word(u) for u in [(2, 1), (1, 1), (2,), (3,)])
    x = FormalSum({w21: Fraction(1, 2), w3: Fraction(1, 3) * T - 2})
    y = FormalSum({w2: Fraction(-5, 7) * T, w11: 4})
    groups = [
        ({}, [
            FormalSum(), FormalSum({w2: 0}), FormalSum({w2: Fraction(0, 5)}),
            FormalSum([(w2, Fraction(1, 2)), (w2, Fraction(-1, 2))]), x - x,
            substitute_t((T - 2) * w(3), 2), s_alpha(w(1, 1) - 3 * w(2), 3) - w(1, 1),
        ]),
        ({(2, 1): {0: Fraction(1, 2)}, (3,): {0: Fraction(-2), 1: Fraction(1, 3)}}, [
            x,
            FormalSum({w21: Fraction(2, 4), w3: RatPoly({1: Fraction(2, 6), 0: Fraction(-4, 2)})}),
            FormalSum([(w3, T * Fraction(1, 3)), (w21, Fraction(1, 2)), (w3, -2)]),
            parse_formal_sum(str(x)), x - y + y, (x * 6) * Fraction(1, 6),
        ]),
        # the denominator 2 of the inputs cancels
        ({(1, 1): {0: Fraction(2)}, (2,): {0: Fraction(1)}}, [
            FormalSum({w11: 2, w2: 1}), FormalSum({w11: Fraction(4, 2), w2: Fraction(1, 1)}),
            FormalSum([(w11, Fraction(1, 2)), (w11, Fraction(3, 2)), (w2, 1)]),
            harmonic_product(w(1), w(1)), s_alpha(w(1, 1), Fraction(1, 2)) * 2,
            substitute_t(s_t(w(1, 1)), Fraction(1, 2)) + w(1, 1) + Fraction(1, 2) * w(2),
            parse_formal_sum("(2)*[1,1] + (1)*[2]"),
        ]),
        ({(1, 1): {0: Fraction(1)}, (2,): {0: Fraction(1, 2)}}, [
            s_alpha(w(1, 1), Fraction(1, 2)), harmonic_product(w(1), Fraction(1, 2) * w(1)),
            FormalSum({w11: Fraction(3, 3), w2: Fraction(2, 4)}),
            substitute_t(s_t(w(1, 1)), Fraction(1, 2)), parse_formal_sum("(1)*[1,1] + (1/2)*[2]"),
        ]),
        ({(1, 1): {0: Fraction(2)}, (2,): {0: Fraction(1), 1: Fraction(-2)}}, [
            t_harmonic_product(w(1), w(1)), FormalSum({w11: 2, w2: 1 - 2 * T}),
            y - y + FormalSum({w2: Fraction(1, 3) - 2 * T}) + Fraction(2, 3) * w(2) + 2 * w(1, 1),
        ]),
    ]
    built = [(i, e) for i, (_, sums) in enumerate(groups) for e in sums]
    for i, e in built:
        assert_normal_form(e)
        assert as_exact_dicts(e) == groups[i][0], (i, str(e))
        again = parse_formal_sum(str(e))
        assert again == e and hash(again) == hash(e), (i, str(e))
    for i, e in built:
        for j, f in built:
            assert (e == f) == (i == j), (i, j, str(e), str(f))
            if i == j:
                assert hash(e) == hash(f), (i, str(e), str(f))
