"""Hölder-convolution evaluator: proved error bounds against independent
oracles (closed forms, the truncated nested sums, exact tails)."""

import math
from fractions import Fraction

import pytest

from izeta.algebra import FormalSum, Index, Word, harmonic_product
from izeta.numeric import (
    PREC,
    _li_half,
    _splits,
    _tail,
    _tail_bound,
    _terms_needed,
    eval_element,
    mzsv,
    mzv,
)

from helpers import admissible_tuples, compositions, exact_layers, letter_splits
from helpers import truncated_checkpoints as _checkpoints

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30
zeta, pi = mpmath.zeta, mpmath.pi

CLOSED_FORMS = [
    (mzv, (2,), zeta(2)),
    (mzv, (3,), zeta(3)),
    (mzv, (2, 1), zeta(3)),
    (mzv, (3, 1), pi**4 / 360),
    (mzv, (2, 2, 2), pi**6 / 5040),
    (mzv, (2, 1, 1), zeta(4)),
    (mzsv, (2, 1), 2 * zeta(3)),
    (mzsv, (3, 1), pi**4 / 72),
    (mzsv, (2, 2), 7 * pi**4 / 360),
]


@pytest.mark.parametrize("fn, parts, reference", CLOSED_FORMS)
def test_closed_forms_lie_inside_a_tight_proved_bound(fn, parts, reference):
    r = fn(Index(parts), 10**6)
    assert abs(mpmath.mpf(r.value) - reference) <= r.err <= 1e-14 * abs(r.value)


def test_a_sum_holding_the_unit_word_evaluates():
    # zeta of the empty word is 1, so the factor 1 + z_2 of the stuffle
    # check zeta((1 + z_2) * z_3) = zeta(1 + z_2) zeta(z_3) evaluates too
    unit = FormalSum.unit()
    z2, z3 = FormalSum.from_word(Word((2,))), FormalSum.from_word(Word((3,)))
    half = Fraction(1, 2)
    for e, reference in [
        (unit, 1),
        (unit + z2, 1 + zeta(2)),
        (harmonic_product(unit + z2, z3), (1 + zeta(2)) * zeta(3)),
    ]:
        r = eval_element(e, half, 100)
        assert abs(mpmath.mpf(r.value) - reference) <= r.err <= 1e-14, e
    with pytest.raises(ValueError, match=r"divergent term: word \[1,2\]"):
        eval_element(FormalSum.from_word(Word((1, 2))), half, 100)


@pytest.mark.parametrize("fn, parts, reference", CLOSED_FORMS)
def test_a_reference_moved_by_1e_12_falls_outside_the_bound(fn, parts, reference):
    r = fn(Index(parts), 10**6)
    assert abs(mpmath.mpf(r.value) - reference * (1 + mpmath.mpf("1e-12"))) > r.err


@pytest.mark.parametrize("fn, parts, reference", CLOSED_FORMS)
def test_bound_covers_the_true_error_when_few_terms_are_summed(fn, parts, reference):
    for M in (4, 8, 16):
        r = fn(Index(parts), M)
        assert abs(mpmath.mpf(r.value) - reference) <= r.err, M


def test_agrees_with_truncation_and_richardson_on_all_indices_up_to_weight_7():
    M = 20_000
    indices = admissible_tuples(7)
    assert len(indices) == 63
    for parts in indices:
        full, half, quarter = _checkpoints(parts, M, True)
        extrapolated = 2.0 * full - half
        spread_err = 5.0 * abs(extrapolated - (2.0 * half - quarter))
        r = mzv(Index(parts), M)
        assert abs(r.value - extrapolated) <= spread_err + r.err, parts


def exact_tail(parts, N, extra=80):
    """Terms N < n1 <= N + extra of Li_parts(1/2) as an exact Fraction; the
    terms past N + extra are 2^-80 smaller than these."""
    L = N + extra
    inner = exact_layers(parts[1:], L)
    return sum(inner[n - 1] / (n ** parts[0] * 2**n) for n in range(N + 1, L + 1))


@pytest.mark.parametrize("N", [4, 8, 16])
def test_tail_bound_covers_the_exact_tail(N):
    for depth in range(1, 5):
        for head in (1, 2, 3):
            bound = Fraction(_tail_bound(head, depth, N))
            # inner exponents 1 are the worst case the bound allows for,
            # and there it stays within a factor 10
            worst = exact_tail((head,) + (1,) * (depth - 1), N)
            assert worst <= bound <= 10 * worst, (head, depth, N)
            assert exact_tail((head,) + (2,) * (depth - 1), N) <= bound


def test_each_fixed_point_series_brackets_its_exact_truncated_sum():
    # T_N = sum over N >= n1 > ... > nr >= 1 of 2^-n1 / (n1^a1 ... nr^ar)
    # in Fractions: the floors put 2^PREC T_N between the fixed-point sum
    # and that sum plus its floor losses, which are err less the tail bound;
    # the shared inner layers lie between their sums and losses likewise
    for weight in range(1, 9):
        for parts in compositions(weight):
            a, top = parts[0], _terms_needed(parts[0], len(parts))
            inner = exact_layers(parts[1:], top)
            sums, lost = _tail(parts[1:])
            for m in range(top):
                assert sums[m] <= inner[m] * 2**PREC <= sums[m] + lost[m], (parts, m)
            exact, n = Fraction(0), 0
            for N in (1, 2, 7, top):
                for n in range(n + 1, N + 1):
                    exact += inner[n - 1] / (n**a << n)
                total, err = _li_half(parts, N)
                tail = math.ceil(math.ldexp(_tail_bound(a, len(parts), N), PREC))
                assert total <= exact * 2**PREC <= total + err - tail, (parts, N)


def test_a_tail_bound_whose_floats_underflow_still_covers_the_tail():
    # its floats underflow to zero at a high head or at a high depth
    assert 0 < exact_tail((200,), 56) <= Fraction(_tail_bound(200, 1, 56))
    # at depth 250 the first nonzero term is n1 = 250 > n2 > ... > n250 = 1
    first = Fraction(1, 2**250 * 250**2 * math.factorial(249))
    assert first <= Fraction(_tail_bound(2, 250, 56))
    # the inner layer of (200,) is exact, so each of the 56 terms loses
    # one unit to its floor; err must add the tail on top of those
    _, err = _li_half((200,), 56)
    assert err > 56


def test_terms_needed_is_the_first_count_a_linear_scan_accepts():
    for a in range(1, 21):
        for r in range(1, 21):
            n = PREC // 2
            while _tail_bound(a, r, n) > 2.0**-PREC:
                n += 1
            assert _terms_needed(a, r) == n, (a, r)


def test_prec_terms_always_suffice():
    # so a tail's vectors stop at n = PREC - 1 and _terms_needed bisects
    # in [PREC // 2, PREC] without looking further; a = 1 is the worst head
    for r in range(1, 201):
        assert _tail_bound(1, r, PREC) <= 2.0**-PREC, r


def test_the_parts_walk_gives_the_pairs_of_the_letter_words():
    indices = admissible_tuples(10)
    assert len(indices) == 511
    for parts in indices:
        assert list(_splits(parts)) == letter_splits(parts), parts


@pytest.mark.parametrize("depth", [172, 200])
def test_deep_series_meet_duality(depth):
    # zeta(2, {1}^(d-1)) = zeta(d + 1); from depth 172 on (r-1)! is no float
    r = mzv(Index((2,) + (1,) * (depth - 1)), 10**6)
    assert abs(mpmath.mpf(r.value) - zeta(depth + 1)) <= r.err


def test_truncation_point_semantics():
    big, huge = mzv(Index((2, 1, 1)), 10**3), mzv(Index((2, 1, 1)), 10**6)
    assert (big.value, big.err) == (huge.value, huge.err)
    with pytest.raises(ValueError, match="below depth"):
        mzv(Index((2, 1)), 1)
    small = mzv(Index((2, 1)), 5)
    assert small.err > 1e3 * huge.err
    assert abs(mpmath.mpf(small.value) - zeta(3)) <= small.err


def test_exact_summation_keeps_a_cancelling_combination_below_double_precision():
    # zeta(2,1) = zeta(3): the two convolutions cancel far below one ulp
    e = FormalSum.from_word(Word((2, 1))) - FormalSum.from_word(Word((3,)))
    r = eval_element(e, 0, 10**6)
    assert abs(r.value) <= r.err <= 1e-25
