"""Numeric evaluation: truncated sums, error estimates, identity checks."""

import math
import sys
import threading
from fractions import Fraction

import pytest

import izeta.numeric as numeric
from izeta.algebra import FormalSum, Index, RatPoly, Word
from izeta.identities import sum_poly, sum_words
from izeta.interpolate import s_t
from izeta.numeric import (
    eval_element,
    kernel_name,
    mzsv,
    mzv,
    verify_identity,
)

from helpers import admissible_tuples, brute_nested_sum, compositions, star_fillings

M_SMALL = 20_000


def test_kernel_selection_reports_a_known_lane():
    assert kernel_name() in {"compiled", "python"}


@pytest.mark.parametrize("parts", [(2,), (3,), (2, 1), (2, 2), (3, 1, 1)])
def test_strict_sum_matches_direct_recursion_at_small_cutoff(parts):
    got = mzv(Index(parts), 64)
    from helpers import truncated_checkpoints as _checkpoints

    raw = _checkpoints(parts, 64, True)[0]
    assert math.isclose(raw, brute_nested_sum(parts, 64, True), rel_tol=1e-12)
    assert got.err >= 0 and got.M == 64


@pytest.mark.parametrize("parts", [(2,), (2, 1), (2, 2), (4, 1, 1)])
def test_non_strict_sum_matches_direct_recursion_at_small_cutoff(parts):
    from helpers import truncated_checkpoints as _checkpoints

    raw = _checkpoints(parts, 64, False)[0]
    assert math.isclose(raw, brute_nested_sum(parts, 64, False), rel_tol=1e-12)


def test_classical_single_values():
    r2 = mzv(Index((2,)), M_SMALL)
    assert abs(r2.value - math.pi**2 / 6) <= r2.err
    r4 = mzv(Index((4,)), M_SMALL)
    assert abs(r4.value - math.pi**4 / 90) <= r4.err
    assert mzsv(Index((4,)), M_SMALL).value == r4.value


def test_depth_two_euler_relation():
    left = mzv(Index((2, 1)), M_SMALL)
    right = mzv(Index((3,)), M_SMALL)
    assert abs(left.value - right.value) <= left.err + right.err


def test_star_values_against_strict_expansions():
    star = mzsv(Index((2, 1)), M_SMALL)
    z3 = mzv(Index((3,)), M_SMALL)
    assert abs(star.value - 2 * z3.value) <= star.err + 2 * z3.err
    star22 = mzsv(Index((2, 2)), M_SMALL)
    parts = mzv(Index((2, 2)), M_SMALL), mzv(Index((4,)), M_SMALL)
    assert abs(star22.value - sum(p.value for p in parts)) <= star22.err + sum(p.err for p in parts)


def test_star_equals_merge_expansion_for_all_small_indices():
    for parts in admissible_tuples(6):
        star = mzsv(Index(parts), M_SMALL)
        total, tol = 0.0, star.err
        for filled, _merges in star_fillings(parts):
            r = mzv(Index(filled), M_SMALL)
            total += r.value
            tol += r.err
        assert abs(star.value - total) <= tol, parts


def test_strict_recovered_by_signed_star_expansion():
    for parts in admissible_tuples(6):
        plain = mzv(Index(parts), M_SMALL)
        total, tol = 0.0, plain.err
        for filled, merges in star_fillings(parts):
            r = mzsv(Index(filled), M_SMALL)
            total += (-1) ** merges * r.value
            tol += r.err
        assert abs(plain.value - total) <= tol, parts


def test_products_hold_numerically():
    from izeta.algebra import harmonic_product, t_harmonic_product

    pairs = [((2,), (2,)), ((2,), (3,)), ((2,), (2, 1)), ((3,), (2, 1)), ((2, 1), (2, 1))]
    for u, v in pairs:
        eu, ev = FormalSum.from_word(Word(u)), FormalSum.from_word(Word(v))
        prod = eval_element(harmonic_product(eu, ev), 0, M_SMALL)
        a, b = eval_element(eu, 0, M_SMALL), eval_element(ev, 0, M_SMALL)
        residual = abs(prod.value - a.value * b.value)
        tol = prod.err + abs(a.value) * b.err + abs(b.value) * a.err
        assert residual <= tol, (u, v)
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1)):
            prod = eval_element(s_t(t_harmonic_product(eu, ev)), alpha, M_SMALL)
            a = eval_element(s_t(eu), alpha, M_SMALL)
            b = eval_element(s_t(ev), alpha, M_SMALL)
            residual = abs(prod.value - a.value * b.value)
            tol = prod.err + abs(a.value) * b.err + abs(b.value) * a.err
            assert residual <= tol, (u, v, alpha)


def test_eval_element_worked_example():
    e = FormalSum.from_word(Word((2, 1))) + Fraction(1, 2) * FormalSum.from_word(Word((3,)))
    r = eval_element(e, Fraction(1, 2), M_SMALL)
    assert abs(r.value - 1.5 * 1.2020569031595942) <= r.err
    z3 = mzv(Index((3,)), M_SMALL)
    assert abs(r.value - 1.5 * z3.value) <= r.err + 1.5 * z3.err


def test_eval_element_trivial_cases():
    r = eval_element(FormalSum.from_word(Word((5,))), 0, M_SMALL)
    assert r.value == mzv(Index((5,)), M_SMALL).value
    zero = eval_element(FormalSum.zero(), Fraction(1, 3), M_SMALL)
    assert zero.value == 0.0 and zero.err == 0.0


def test_error_estimates_are_honest_against_larger_references():
    for parts in [(2,), (3,), (4,), (2, 1), (2, 1, 1)]:
        r = mzv(Index(parts), 25_000)
        ref = mzv(Index(parts), 100_000)
        assert abs(r.value - ref.value) <= r.err, parts


def test_divergence_and_bad_cutoff_are_rejected():
    with pytest.raises(ValueError, match="divergent series"):
        mzv(Index((1, 2)), 100)
    with pytest.raises(ValueError, match="divergent series"):
        mzsv(Index((1,)), 100)
    with pytest.raises(ValueError):
        mzv(Index((2, 1)), 1)
    with pytest.raises(ValueError, match="divergent term"):
        eval_element(FormalSum.from_word(Word((1, 2))), 0, 100)


def test_verify_identity_reports_per_sample_residuals():
    k, n = 3, 2
    lhs = s_t(sum_words(k, n))
    rhs = FormalSum.from_word(Word((k,))) * sum_poly(k, n)
    report = verify_identity(lhs, rhs, [Fraction(0), Fraction(1, 2), Fraction(1)], M_SMALL)
    assert len(report.checks) == 3
    assert report.ok
    for check in report.checks:
        assert check.residual <= check.tol
        assert check.tol <= check.lhs.err + check.rhs.err + 1e-18


def test_verify_identity_takes_only_exact_samples():
    e = FormalSum.from_word(Word((2,)))
    assert verify_identity(e, e, [Fraction(1, 3), 1], M_SMALL).ok
    for sample in (0.1, "1/3", True):
        with pytest.raises(TypeError, match="exact rational coefficient required"):
            verify_identity(e, e, [Fraction(1, 2), sample], M_SMALL)


def test_a_truncation_M_that_is_no_int_is_refused():
    e = FormalSum.from_word(Word((2, 1)))
    for M in (2.9, True, Fraction(7, 2), 3.0):
        for value in (
            lambda: mzv((2,), M),
            lambda: mzsv(Index((2, 1)), M),
            lambda: eval_element(e, Fraction(1, 2), M),
            lambda: eval_element(FormalSum.zero(), 0, M),
        ):
            with pytest.raises(ValueError) as info:
                value()
            assert str(info.value) == f"truncation M must be an integer, got {M}"


def test_num_result_renders_value_error_and_cutoff():
    r = mzv(Index((2,)), M_SMALL)
    text = str(r)
    assert "err" in text and str(M_SMALL) in text


@pytest.mark.parametrize("parts", [(2,), (2, 1), (2, 1, 1), (3, 1, 2, 1)])
def test_strict_and_star_values_refuse_M_below_the_depth(parts):
    depth = len(parts)
    for fn in (mzv, mzsv):
        for m in (depth - 1, 0):
            with pytest.raises(ValueError) as info:
                fn(Index(parts), m)
            assert str(info.value) == f"truncation M={m} below depth {depth}"
        assert fn(Index(parts), depth).err > 0
    with pytest.raises(ValueError) as info:
        mzsv(Index((1, 2)), 0)
    assert str(info.value) == "divergent series: index 1,2 is not admissible"


def test_eval_element_skips_words_whose_coefficient_vanishes_at_t():
    one_minus_2t = RatPoly({0: 1, 1: -2})
    e = FormalSum.from_word(Word((2,))) + one_minus_2t * (
        FormalSum.from_word(Word((1, 2))) + FormalSum.from_word(Word((2, 1, 1, 1)))
    )
    r = eval_element(e, Fraction(1, 2), 2)
    z2 = mzv(Index((2,)), 2)
    assert (r.value, r.err) == (z2.value, z2.err)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(-2, 3), 3])
def test_eval_element_scales_exactly_by_powers_of_two(alpha):
    # the sum is exact until one rounding, so a power of two passes through
    e = s_t(sum_words(6, 3)) + Fraction(5, 7) * s_t(FormalSum.from_word(Word((3, 1, 2))))
    for M in (5, 300):
        r = eval_element(e, alpha, M)
        for k in (1, 3, 10):
            scaled = eval_element(2**k * e, alpha, M)
            assert (scaled.value, scaled.err) == (2**k * r.value, 2**k * r.err)


def test_every_numeric_memo_is_a_bounded_table_that_cache_clear_empties():
    # sized so that verify sum-formula --k 16 --numeric, with its 16,384
    # strict values, 49,151 series and 16,383 tails, evicts nothing
    module = vars(numeric).items()
    tables = {n: v for n, v in module if getattr(v, "__module__", None) == numeric.__name__
              and hasattr(v, "cache_clear")}
    bounds = {n: t.cache_parameters()["maxsize"] for n, t in tables.items()}
    assert bounds == {"_terms_needed": 1 << 10, "_tail": 1 << 14, "_li_half": 1 << 16,
                      "_strict": 1 << 15}
    # no module-level container holds a table that cache_clear would miss
    containers = (dict, list, set)
    assert [n for n, v in module if not n.startswith("__") and isinstance(v, containers)] == []
    before = mzv(Index((3, 1, 2)), 10**6)
    assert all(t.cache_info().currsize for t in tables.values())
    for t in tables.values():
        t.cache_clear()
    assert all(t.cache_info().currsize == 0 for t in tables.values())
    assert mzv(Index((3, 1, 2)), 10**6) == before


def test_threads_sharing_the_tail_memo_from_a_cold_start_get_the_values_of_one_thread():
    # 8 threads build and read the shared `_tail` memo from a cold start,
    # each running the same calls in the same order; each must get what
    # one thread alone got
    series = numeric._li_half.__wrapped__  # past its memo, onto the tails
    cases = [(p, N) for N in range(1, 101) for w in range(1, 7) for p in compositions(w)]
    numeric._tail.cache_clear()
    expected = [series(*c) for c in cases]
    numeric._tail.cache_clear()
    start, results = threading.Barrier(8), []

    def run():
        start.wait(timeout=60)
        results.append([series(*c) for c in cases])

    threads = [threading.Thread(target=run) for _ in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8


def test_a_value_beyond_float_range_is_refused():
    # zeta^t(2,1) = zeta(2,1) + t zeta(3) is beyond float range at these t
    e = s_t(FormalSum.from_word(Word((2, 1))))
    for t in (Fraction(10) ** 400, -Fraction(10) ** 309, Fraction(10**700, 3)):
        with pytest.raises(ValueError, match="^value or error bound beyond float range$"):
            eval_element(e, t, 300)
    # and still a float at 1e307
    got = eval_element(e, Fraction(10) ** 307, 300)
    assert 1.1e307 < got.value < 1.3e307 and math.isfinite(got.err)
