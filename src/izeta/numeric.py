"""Floating-point values of multiple zeta sums with proved error bounds.

Every strict value comes from the Hölder convolution at p = 2 (Borwein,
Bradley, Broadhurst and Lisoněk, *Special values of multiple
polylogarithms*, Trans. AMS 353 (2001), §7).  Write the admissible index
k of weight w as the iterated-integral word
omega = x0^(k1-1) x1 ... x0^(kd-1) x1.  Splitting the integral over
[0, 1] at 1/2 gives

    zeta(k) = sum_{j=0..w} Li_{A_j}(1/2) * Li_{B_j}(1/2),

where B_j is omega without its first j letters and A_j is those j
letters reversed, with x0 and x1 swapped.  Both words end in x1, and
each series Li_a(1/2) = sum_{n1>...>nr>=1} 2^-n1 / (n1^a1 ... nr^ar)
converges like 2^-n.  The pairs are walked as parts, never as letters:
at a letter x0, A gains a leading part 1 and B's first part drops by
one; at a letter x1, A's first part grows by one and B drops its first
part.

Each series is summed in fixed point, as Python integers scaled by
2^PREC.  Its inner layers, the sums over n >= n2 > ... > nr >= 1, depend
only on n and on the parts after the first.  So each distinct tail of
parts is one memo entry of two vectors at n = 0..PREC-1, its partial
sums and its floor losses, built once from the entry of the tail's own
tail and shared by every series that ends in that tail.  No series
reads past them: it sums at most 111 terms, since even at the worst
head and depth, a = 1 and r = 6, the tail bound after 111 terms is
0.92 * 2^-PREC.  A series is then one pass of N steps with its 2^-n.
Tails, series and strict values are kept in process-wide LRU tables,
sized so that the sum formula at weight 16 evicts nothing.  Every
division is floored, so the sums are lower bounds, and the reported
`err` is proved.  It adds up

* the tail past the truncation point N: the inner sums are at most
  H_(n-1)^(r-1)/(r-1)!, so the tail is at most
  sum_{n>N} 2^-n (1 + ln n)^(r-1) / ((r-1)! n^a1);
* the floor losses, counted alongside the sums;
* the exact error of the one final rounding to a float.

It never goes below 8*eps*|value|, so callers' own float arithmetic on
the values stays covered.  `M` caps the truncation point: each series
sums min(M, the terms PREC bits need) terms, at most 111, so every
M >= 111 gives the same value.  An M that is not an int, or is below
the depth of a word, is refused, for strict and star values alike.

Star values are the integer S^1 expansion of strict values.  Every value
is one sum of integer coefficients over one denominator times strict
values, taken exactly and rounded once: 1 for `mzv` and `mzsv`, and
the coefficients at t over their common denominator for `eval_element`.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .algebra import Index, _as_exact, _at_each, as_sum
from .interpolate import _s_t_word

METHOD = "convolution"
BOUND = "rigorous"  # err is proved, not estimated
PREC = 112  # fixed-point bits of every series
_ONE = 1 << PREC
_EPS = sys.float_info.epsilon


def kernel_name():
    """Which summation kernel runs: only the pure-Python one exists."""
    return "python"


class NumResult(namedtuple("NumResult", "value err M meta")):
    """A float value with its proved error bound and provenance."""

    __slots__ = ()

    def __str__(self):
        return f"{self.meta} = {self.value!r} (err<={self.err:.3e}, M={self.M})"


def _tail_bound(a, r, N):
    """Upper bound on the terms n1 > N of Li_(a, ...)(1/2) at depth r.

    Term n is at most g(n) = 2^-n (1 + ln n)^(r-1) / ((r-1)! n^a), and
    g(n+1)/g(n) <= rho(n) = ((1 + ln(n+1)) / (1 + ln n))^(r-1) / 2,
    which falls with n.  So sum g(n) term by term until rho <= 3/4, then
    bound the rest by a geometric series.  Floats carry the arithmetic;
    the final factor covers their rounding.  Past depth 171, (r-1)! is
    no float, so g is taken in logs; there the bound is below 2^-500, so
    the rounding of the logs cannot matter at 2^-PREC.  The bound is
    never below 2^-PREC: where the floats underflow, to zero at a high
    head or depth, the true tail lies far below that."""

    def g(n):
        if r <= 171:
            return math.ldexp((1 + math.log(n)) ** (r - 1) * n**-a, -n) / math.factorial(r - 1)
        ln = math.log(n)
        return math.exp((r - 1) * math.log1p(ln) - a * ln - n * math.log(2) - math.lgamma(r))

    def rho(n):
        return ((1 + math.log(n + 1)) / (1 + math.log(n))) ** (r - 1) / 2

    n, total = N + 1, 0.0
    while rho(n) > 0.75:
        total += g(n)
        n += 1
    return max((total + g(n) / (1 - rho(n))) * (1 + 1e-9), math.ldexp(1.0, -PREC))


@lru_cache(maxsize=1 << 10)
def _terms_needed(a, r):
    """Fewest terms, from PREC // 2 on, after which the tail is below
    2^-PREC, found by bisection, as the bound falls as N grows.  PREC
    terms always suffice: at N = PREC the bound is at most
    0.46 * 2^-PREC, the worst over every depth being r = 6 and the worst
    head a = 1."""
    lo, hi = PREC // 2, PREC
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound(a, r, mid) > math.ldexp(1.0, -PREC):
            lo = mid + 1
        else:
            hi = mid
    return lo


@lru_cache(maxsize=1 << 14)
def _tail(parts):
    """The two vectors of the inner layers `parts` of a series at
    n = 0..PREC-1: the partial sums over n >= n1 > ... > nr >= 1 of
    1/(n1^a1 ... nr^ar), scaled by 2^PREC, and what their floors
    dropped.  The empty tail is 1 at every n.  A series sums at most
    PREC terms and reads its tail at n - 1, so no one reads past them.
    Tuples, as every series ending in `parts` shares them."""
    if not parts:
        return (_ONE,) * PREC, (0,) * PREC
    a, (inner, inner_lost) = parts[0], _tail(parts[1:])
    sums, lost = [0], [0]
    for n in range(1, PREC):
        q = n**a
        sums.append(sums[-1] + inner[n - 1] // q)
        # floor((x - d)/q) misses x/q by less than d/q + 1
        lost.append(lost[-1] - (-inner_lost[n - 1] // q) + 1)
    return tuple(sums), tuple(lost)


@lru_cache(maxsize=1 << 16)
def _li_half(parts, N):
    """Li_parts(1/2) from the terms n1 <= N, in fixed point.

    Returns (total, err), both scaled by 2^PREC: the floors only round
    down, so the series lies in [total, total + err], where err adds what
    the floors dropped to the tail bound.  One pass over n <= N, with its
    2^n, reads the inner layers at n - 1 from their shared vectors."""
    a, (inner, inner_lost) = parts[0], _tail(parts[1:])
    total = lost = 0
    for n in range(1, N + 1):
        q = n**a << n
        total += inner[n - 1] // q
        lost += -(-inner_lost[n - 1] // q) + 1
    tail = math.ceil(math.ldexp(_tail_bound(a, len(parts), N), PREC))
    return total, lost + tail


def _series(parts, M):
    """Li_parts(1/2) at scale 2^PREC: (lower bound, error bound)."""
    if not parts:
        return _ONE, 0
    return _li_half(parts, min(M, _terms_needed(parts[0], len(parts))))


def _splits(parts):
    """The pairs (A_j, B_j), j = 0..w, of the admissible index `parts` of
    weight w, as parts.  B_j loses the letter that A_j gains."""
    a, b = (), parts
    yield a, b
    while b:
        if b[0] > 1:  # x0: A gains a leading x1, B's first part shrinks
            a, b = (1,) + a, (b[0] - 1,) + b[1:]
        else:  # x1: A gains a leading x0, B's first part, 1, goes
            a, b = (a[0] + 1,) + a[1:], b[1:]
        yield a, b


@lru_cache(maxsize=1 << 15)
def _strict(parts, M):
    """zeta(parts) by Hölder convolution at scale 4^PREC: (lower bound,
    error bound).  Each series sums at most M terms."""
    value = bound = 0
    for pa, pb in _splits(parts):
        a, ea = _series(pa, M)
        b, eb = _series(pb, M)
        value += a * b
        bound += a * eb + b * ea + ea * eb
    return value, bound


def _result(den, coeffs, M, meta):
    """Sum c * zeta(w) / den over {Word: int c} exactly, round to a float
    once, and bound the error: the per-term bounds, the rounding (rounded
    up), and the 8*eps*|value| floor.  Raises ValueError when the value
    or its bound is beyond float range."""
    value = bound = 0
    for w, c in coeffs.items():
        v, b = _strict(w, M)
        value += c * v
        bound += abs(c) * b
    den *= _ONE * _ONE
    value = Fraction(value, den)
    try:
        x = float(value)
        err = Fraction(bound, den) + abs(Fraction(x) - value)
        e = float(err)
    except OverflowError:
        raise ValueError("value or error bound beyond float range") from None
    if e < err:
        e = math.nextafter(e, math.inf)
    return NumResult(x, max(e, 8.0 * _EPS * abs(x)), M, meta)


def _check_truncation(M, depth):
    """Refuse a truncation M that is not an int, or is below `depth`:
    a float, a Fraction or a bool is not silently cut to an integer."""
    if type(M) is not int:
        raise ValueError(f"truncation M must be an integer, got {M}")
    if M < depth:
        raise ValueError(f"truncation M={M} below depth {depth}")


def _checked_index(idx, M):
    """The admissible index `idx` as an Index, refused when M is below
    its depth."""
    if not isinstance(idx, Index):
        idx = Index(idx)
    if not idx.admissible:
        raise ValueError(f"divergent series: index {idx} is not admissible")
    _check_truncation(M, idx.depth)
    return idx


def mzv(idx, M):
    """Strict multiple zeta value of an admissible index; every series
    sums at most M terms."""
    idx = _checked_index(idx, M)
    return _result(1, {idx: 1}, M, f"zeta({idx})")


def mzsv(idx, M):
    """Non-strict (star) variant of :func:`mzv`: the sum of the strict
    values of all contractions of the index."""
    idx = _checked_index(idx, M)
    coeffs = dict.fromkeys(_s_t_word(idx), 1)
    return _result(1, coeffs, M, f"zeta*({idx})")


def eval_element(e, alpha, M):
    """Evaluate a formal sum of admissible words, the empty word (value 1)
    among them: substitute t = alpha in the coefficients, then sum
    coefficient * zeta(word) over the terms.

    The coefficients at alpha are integers over one common denominator,
    each distinct stored dict evaluated once, so the sum is exact until
    the one final rounding, and the error bound is the weighted sum of
    the per-term bounds plus that rounding.  Raises ValueError when the
    value or its bound is beyond float range."""
    e = as_sum(e)
    _check_truncation(M, 0)  # also for a sum with no term at alpha
    den, values = _at_each(_as_exact(alpha), e)
    coeffs = {}
    for w, c in e._graded.items():
        if not (c := values[id(c)]):  # the coefficient vanishes at alpha
            continue
        if w and w[0] < 2:
            raise ValueError(f"divergent term: word [{w}]")
        _check_truncation(M, w.depth)
        coeffs[w] = c
    return _result(den, coeffs, M, f"element@t={alpha}")


class IdentityCheck(namedtuple("IdentityCheck", "t lhs rhs residual tol")):
    """Both sides of an identity at one parameter sample."""

    __slots__ = ()

    @property
    def ok(self):
        return self.residual <= self.tol

    def __str__(self):
        tag = "ok " if self.ok else "FAIL"
        return (
            f"{tag} t={self.t}: lhs={self.lhs.value!r} rhs={self.rhs.value!r} "
            f"|diff|={self.residual:.3e} tol={self.tol:.3e}"
        )


class VerifyReport(namedtuple("VerifyReport", "checks")):
    """Residual report for one identity over a set of t samples."""

    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def verify_identity(lhs, rhs, t_samples, M):
    """Compare two formal sums numerically at each exact rational sample;
    a sample passes when the residual sits inside the combined error."""
    checks = []
    for t in t_samples:
        t = Fraction(_as_exact(t))
        left = eval_element(lhs, t, M)
        right = eval_element(rhs, t, M)
        residual = abs(left.value - right.value)
        checks.append(
            IdentityCheck(t, left, right, residual, left.err + right.err)
        )
    return VerifyReport(tuple(checks))
