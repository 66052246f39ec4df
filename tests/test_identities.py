"""Identity families: sum formula, cyclic operators, alternating sums, two-one."""

from fractions import Fraction
from math import comb

import pytest

import izeta.identities as identities
from izeta.algebra import FormalSum, Index, RatPoly, T, Word, harmonic_product
from izeta.identities import (
    _raised,
    _split,
    alt_sum,
    csf_generator,
    csf_generator_linear,
    cyclic_C,
    cyclic_Sigma,
    cyclic_delta,
    odd_product_check,
    sum_formula_sides,
    sum_poly,
    sum_words,
    two_one_lhs_index,
    two_one_rhs_word,
    words_of_weight,
)
from izeta.interpolate import _s_t_lists, d_dt, s_alpha, s_t

from helpers import (
    by_word,
    compositions,
    merge_bitmask_contractions,
    split_bitmask_words,
    words_up_to_weight,
)


def w(*letters):
    return FormalSum.from_word(Word(letters))


# ------------------------------------------------------------ sum formula

def test_words_of_weight_enumerates_all_compositions():
    for k in range(1, 11):
        words = words_of_weight(k)
        assert len(words) == 2 ** (k - 1)
        assert len(set(words)) == len(words)
        assert all(word.weight == k for word in words)
        assert words == split_bitmask_words(k), k
        assert all(type(word) is Word for word in words)


def test_sum_words_examples():
    assert sum_words(3, 2) == w(2, 1)
    assert sum_words(4, 2) == w(3, 1) + w(2, 2)
    for k in range(2, 7):
        assert sum_words(k, 1) == w(k)
    with pytest.raises(ValueError, match="empty family"):
        sum_words(3, 3)


def test_sum_words_term_count():
    for k in range(2, 13):
        admissible = [c for c in compositions(k) if c[0] >= 2]
        for n in range(1, k):
            family = sum_words(k, n)
            assert len(list(family.words())) == comb(k - 2, n - 1)
            assert all(word.letters[0] >= 2 and word.weight == k for word in family.words())
            colex = sorted((c for c in admissible if len(c) == n), key=lambda c: c[::-1])
            assert list(family.words()) == colex, (k, n)


def test_operator_on_sum_families_matches_binomial_closed_form():
    # each letter splits on its own and the first part of the first letter
    # is at least 2, so a word of depth m and weight k gets x^m (1 + t x)^(k-m-1)
    # in sum_n x^n S^t(sum_words(k, n)): the right side uses no S^t
    for k in range(2, 13):
        for n in range(1, k):
            expected = FormalSum()
            for j in range(n):
                coeff = RatPoly({j: comb(k - n + j - 1, j)})
                expected = expected + coeff * sum_words(k, n - j)
            assert s_t(sum_words(k, n)) == expected


@pytest.mark.parametrize("k", [13, 14])
def test_operator_on_sum_families_matches_binomial_closed_form_at_large_weight(k):
    for n in range(1, k):
        expected = FormalSum()
        for j in range(n):
            expected = expected + RatPoly({j: comb(k - n + j - 1, j)}) * sum_words(k, n - j)
        assert s_t(sum_words(k, n)) == expected, n


def test_sum_poly_examples():
    assert sum_poly(3, 2) == RatPoly({0: 1, 1: 1})
    assert sum_poly(5, 3) == RatPoly({0: 1, 1: 2, 2: 3})
    for k in range(2, 7):
        assert sum_poly(k, 1) == RatPoly({0: 1})


def test_sum_poly_boundary_values():
    for k in range(2, 13):
        for n in range(1, k):
            p = sum_poly(k, n)
            assert p.evaluate(0) == 1
            assert p.evaluate(1) == comb(k - 1, n - 1)


def test_sum_poly_is_the_papers_sum_of_binomial_terms():
    one_minus_t = 1 - T
    for k in range(2, 25):
        for n in range(1, k):
            paper = RatPoly(0)
            for j in range(n):
                paper = paper + comb(k - 1, j) * T**j * one_minus_t ** (n - 1 - j)
            assert sum_poly(k, n) == paper, (k, n)


def test_word_ladder_matches_depth_drop():
    for k in range(3, 8):
        for n in range(2, k):
            lhs = d_dt(s_t(sum_words(k, n)))
            rhs = (k - n) * s_t(sum_words(k, n - 1))
            assert lhs == rhs


def test_poly_ladder_matches_depth_drop():
    for k in range(3, 13):
        for n in range(2, k):
            assert sum_poly(k, n).derivative() == RatPoly({0: k - n}) * sum_poly(k, n - 1)


# -------------------------------------------------------- cyclic operators

def test_cyclic_rotation_sum_examples():
    assert cyclic_C(Word((2, 1))) == w(3, 1) + w(2, 2)
    assert cyclic_C(Word((5,))) == w(6)
    assert cyclic_C(Word((1, 1))) == 2 * w(2, 1)
    with pytest.raises(ValueError):
        cyclic_C(Word(()))


def test_cyclic_head_split_examples():
    assert cyclic_Sigma(Word((2, 1))) == w(2, 1, 1)
    for k in range(2, 7):
        expected = FormalSum.zero()
        for j in range(1, k):
            expected = expected + w(k + 1 - j, j)
        assert cyclic_Sigma(Word((k,))) == expected
    assert cyclic_Sigma(Word((1, 1))) == FormalSum.zero()
    with pytest.raises(ValueError):
        cyclic_Sigma(Word(()))


def test_cyclic_merge_examples():
    assert cyclic_delta(Word((2, 1))) == 2 * w(3)
    assert cyclic_delta(Word((1, 2, 3))) == w(3, 3) + w(5, 1) + w(4, 2)
    assert cyclic_delta(Word((1, 1))) == 2 * w(2)
    with pytest.raises(ValueError, match="delta undefined"):
        cyclic_delta(Word((4,)))


@pytest.mark.parametrize("letters", [(1, 2, 1, 2), (2, 2), (2, 1, 2, 1, 2, 1)])
def test_s_t_of_the_split_and_raised_words_of_a_periodic_word(letters):
    # a periodic word names each rotation, and so each raised and each
    # split word, more than once; S^t adds them up
    rotations = [letters[i:] + letters[:i] for i in range(len(letters))]
    raised = [(r[0] + 1,) + r[1:] for r in rotations]
    split = [(r[0] + 1 - j,) + r[1:] + (j,) for r in rotations for j in range(1, r[0])]
    for words, named in ((raised, _raised(letters)), (split, _split(letters))):
        assert len(set(words)) < len(words)
        expected = {}
        for v in words:
            for _, sigma, blocks in merge_bitmask_contractions(v):
                acc = expected.setdefault(blocks, {})
                acc[sigma] = acc.get(sigma, 0) + 1
        got = by_word(next(_s_t_lists([list(named)])))
        assert {tuple(u): {e: c for e, c in p.items() if c} for u, p in got.items()} == expected


def test_cyclic_operators_preserve_total_weight_plus_one():
    for word in words_up_to_weight(6):
        for image in (cyclic_C(word), cyclic_Sigma(word)):
            assert all(v.weight == word.weight + 1 for v in image.words())
        if len(word.letters) >= 2:
            assert all(v.weight == word.weight for v in cyclic_delta(word).words())


def test_generator_example_and_guard():
    assert csf_generator(Word((2,))) == w(2, 1) - w(3)
    with pytest.raises(ValueError, match="excluded"):
        csf_generator(Word((1, 1, 1)))


def test_generator_extends_linearly():
    e = 2 * w(2, 1) + RatPoly({1: 1}) * w(3)
    expected = 2 * csf_generator(Word((2, 1))) + RatPoly({1: 1}) * csf_generator(Word((3,)))
    assert csf_generator_linear(e) == expected


def test_generator_derivative_closure():
    for k in range(2, 8):
        assert d_dt(csf_generator(Word((k,)))) == FormalSum.zero()
    for word in words_up_to_weight(6):
        if len(word.letters) < 2 or word.weight <= len(word.letters):
            continue
        assert d_dt(csf_generator(word)) == csf_generator_linear(cyclic_delta(word))


def test_cyclic_derivative_laws():
    for word in words_up_to_weight(6):
        if len(word.letters) < 2:
            continue
        assert d_dt(s_t(cyclic_C(word))) == s_t(cyclic_C_of(cyclic_delta(word)))
        assert d_dt(s_t(cyclic_Sigma(word))) == s_t(cyclic_Sigma_of(cyclic_delta(word))) - s_t(
            cyclic_C(word)
        )
    for k in range(2, 10):
        assert d_dt(s_t(cyclic_Sigma(Word((k,))))) == (k - 1) * w(k + 1)


def cyclic_C_of(e):
    total = FormalSum.zero()
    for word, poly in e.items():
        total = total + poly * cyclic_C(word)
    return total


def cyclic_Sigma_of(e):
    total = FormalSum.zero()
    for word, poly in e.items():
        total = total + poly * cyclic_Sigma(word)
    return total


# --------------------------------------------------------- alternating sum

def test_alternating_sum_vanishes_for_all_small_sequences():
    for weight in range(1, 7):
        for letters in compositions(weight):
            assert alt_sum(letters).is_zero(), letters


@pytest.mark.parametrize("letters", [(1.5, 2.7), (2.0,), ("1",), (1, True)])
def test_alternating_sum_letters_must_be_ints(letters):
    with pytest.raises(ValueError, match="positive integer"):
        alt_sum(letters)


def test_alternating_sum_direct_half_parameter_form():
    half = Fraction(1, 2)
    for letters in [(1,), (3, 1), (1, 3), (1, 1, 3), (3, 1, 1)]:
        total = FormalSum.zero()
        n = len(letters)
        for cut in range(n + 1):
            prefix = FormalSum.from_word(Word(letters[:cut]))
            suffix = FormalSum.from_word(Word(tuple(reversed(letters[cut:]))))
            term = harmonic_product(s_alpha(prefix, half), s_alpha(suffix, half))
            total = total + (-1) ** cut * term
        assert total.is_zero(), letters


# ----------------------------------------------------------------- two-one

def test_two_one_index_construction():
    assert two_one_lhs_index((1,)) == Index((2, 1))
    assert two_one_lhs_index((1, 1)) == Index((2, 1, 2, 1))
    assert two_one_lhs_index((2, 0)) == Index((2, 2, 1, 1))
    with pytest.raises(ValueError, match="non-admissible star index"):
        two_one_lhs_index((0, 1))


@pytest.mark.parametrize("j", [(1.9, 0.5), (2.5,), (1, 1.0), ("1",), (True,)])
def test_two_one_block_sizes_must_be_ints(j):
    for build in (two_one_lhs_index, two_one_rhs_word):
        with pytest.raises(ValueError, match="block sizes must be integers"):
            build(j)


def test_two_one_word_translation():
    assert two_one_rhs_word((1,)) == (Word((3,)), Fraction(2))
    assert two_one_rhs_word((1, 1)) == (Word((3, 3)), Fraction(4))
    assert two_one_rhs_word((2, 0)) == (Word((5, 1)), Fraction(4))


def test_odd_words_close_under_half_parameter_product():
    assert odd_product_check(Word((1,)), Word((1,)))
    assert odd_product_check(Word((1,)), Word((1, 1)))
    assert odd_product_check(Word((3,)), Word((3,)))
    odd_words = [word for word in words_up_to_weight(7) if all(a % 2 == 1 for a in word.letters)]
    for u in odd_words:
        for v in odd_words:
            if len(u.letters) + len(v.letters) <= 5:
                assert odd_product_check(u, v), (u, v)


def test_odd_check_rejects_even_letters():
    with pytest.raises(ValueError, match="outside odd subalgebra"):
        odd_product_check(Word((2,)), Word((1,)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: words_of_weight(0), "weight must be positive"),
        (lambda: sum_poly(3, 3), "empty family: weight 3, depth 3"),
        (lambda: alt_sum([]), "letter sequence must be nonempty"),
        (lambda: two_one_lhs_index([]), "need at least one block"),
        (lambda: two_one_lhs_index([1, -1]), "block sizes must be nonnegative"),
        (lambda: sum_formula_sides(5, 7), "empty family: weight 5, depth 7"),
        (lambda: sum_formula_sides(5, 5), "empty family: weight 5, depth 5"),
        (lambda: sum_formula_sides(5, 0), "empty family: weight 5, depth 0"),
    ],
)
def test_identity_builders_refuse_empty_or_negative_input(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


def test_the_sum_formula_builds_each_right_side_as_its_depth_is_yielded(monkeypatch):
    calls = []
    coeffs = identities._sum_poly_coeffs
    monkeypatch.setattr(
        identities, "_sum_poly_coeffs", lambda k, n: calls.append(n) or coeffs(k, n)
    )
    batch = identities._sum_formula_batch(12, range(1, 12))
    _, rhs = next(batch)
    assert calls == [1] and rhs == [{(12,): 1}]
    _, rhs = next(batch)
    assert calls == [1, 2] and rhs == [{(12,): 1}, {(12,): comb(10, 1)}]


@pytest.mark.parametrize("depths, bad", [([0], 0), ([12], 12), ([3, 12, 5], 12), ([3, 0, 13], 0)])
def test_a_sum_formula_batch_naming_an_empty_family_raises_before_s_t_runs(
    monkeypatch, depths, bad
):
    def run(*args):
        raise AssertionError("S^t ran")

    monkeypatch.setattr(identities, "_s_t_lists", run)
    with pytest.raises(ValueError) as info:
        next(identities._sum_formula_batch(12, depths))
    assert str(info.value) == f"empty family: weight 12, depth {bad}"
