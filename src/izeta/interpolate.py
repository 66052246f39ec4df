"""The interpolation operator on the word algebra.

The operator acts on a word of length n by summing, over all ways of
contracting adjacent letters into blocks, the contracted word weighted by
t^(number of merges).  At t = 0 it is the identity; at t = 1 it sends the
generating series of strict nested sums to that of non-strict ones.  All
routines here are Q[t]-linear in their formal-sum argument.

One word's image comes from the first-letter recursion
S(a u) = a S(u) + t (a o S(u)), where a o merges the letter a into the
head of each word, memoised on the tail u (Hoffman, *Quasi-shuffle
products*, J. Algebraic Combin. 11 (2000)).  Its 2^(n-1) words are
distinct, and the memo keeps just those words: a contraction u of w
carries t^sigma with sigma = len(w) - len(u), its number of merges.  So
`s_t` only shifts degrees, and `s_alpha` multiplies by alpha^sigma in
integers over one common denominator; `s_poly` is each word's `s_t` image
with a polynomial put in for t.  `taylor_shift` splits a sum by degree in
t and re-expands the split about alpha by Horner's rule.  Results are
built with the trusted constructors of `algebra` from the validated
input.  `enumerate_contractions` reads the same expansion as
explicit patterns, and so do `identities.words_of_weight`,
`identities.sum_words` and `numeric.mzsv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate

from .algebra import (
    FormalSum,
    Index,
    RatPoly,
    Word,
    _as_exact,
    _at_alpha,
    _normal_sum,
    _poly,
    _word,
    as_sum,
    substitute_t,
    word_linear,
)


@dataclass(frozen=True)
class Contraction:
    """A contraction pattern of a length-n word.

    `marks` are the block boundaries 0 = r0 < r1 < ... < rs = n; letters
    between consecutive marks merge into one block by adding subscripts.
    `sigma` counts the merges, n - s.
    """

    marks: tuple[int, ...]
    sigma: int

    def __post_init__(self):
        m = self.marks
        if not m or m[0] != 0 or any(a >= b for a, b in zip(m, m[1:])):
            raise ValueError(f"invalid contraction marks {m!r}")
        if self.sigma != m[-1] - (len(m) - 1):
            raise ValueError("sigma inconsistent with marks")


def enumerate_contractions(w):
    """All 2^(n-1) contractions of a nonempty word, with their images.

    Deterministic order: ascending over the bitmask of merged gaps, the
    gap after the first letter being the most significant bit.

    The images are the words of the operator's expansion of w; a block
    ends where a partial sum of the image meets a partial sum of w.
    """
    if w.depth == 0:
        raise ValueError("unit has no contractions")
    mark = {s: i for i, s in enumerate(accumulate(w), 1)}  # partial sum -> mark
    out = []
    # as a Word: an Index would key the memo table by an Index
    for u in _s_t_word(_word(w)):
        marks = (0, *(mark[s] for s in accumulate(u)))
        out.append((Contraction(marks, len(w) - len(u)), u))
    # ascending marks is ascending bitmask: the first gap where two
    # patterns differ is a mark of the one with the smaller mask
    return sorted(out, key=lambda entry: entry[0].marks)


@cache
def _s_t_word(w: Word) -> tuple[Word, ...]:
    """The words of the operator's image of one word, by the first-letter
    recursion.  Distinct contraction patterns give distinct words (a
    word's partial sums determine it), so the image is these words, each
    u with coefficient t^(len(w) - len(u))."""
    if len(w) <= 1:
        return (w,)
    a = w[0]
    out = []
    for u in _s_t_word(_word(w[1:])):
        out += (_word((a,) + u), _word((a + u[0],) + u[1:]))
    return tuple(out)


def s_poly(e, param):
    """Apply the operator with its parameter replaced by the polynomial
    `param`; Q[t]-linear, so existing coefficients are left alone: each
    word's `s_t` image with `param` put in for t, times the word's own
    coefficient."""
    param = RatPoly(param)
    return word_linear(lambda w: s_t(w).map_coefficients(lambda p: p.compose(param)), e)


def s_t(e):
    """The interpolation operator itself (parameter t): each contraction
    with sigma merges shifts the degrees of its coefficient by sigma."""
    out = {}
    for w, c in as_sum(e).terms.items():
        for u in _s_t_word(w):
            sigma = len(w) - len(u)
            acc = out.get(u)
            if acc is None:
                out[u] = {deg + sigma: x for deg, x in c.coeffs.items()}
                continue
            for deg, x in c.coeffs.items():
                acc[deg + sigma] = acc.get(deg + sigma, 0) + x
    terms = {}
    for u, acc in out.items():
        p = {deg: x for deg, x in acc.items() if x}
        if p:
            terms[u] = _poly(p)
    return _normal_sum(terms)


def s_alpha(e, alpha):
    """The operator at an exact rational parameter value, equal to s_t
    followed by substitution of alpha for t: a term c(t) w contributes
    c(alpha) alpha^sigma to each contraction of w with sigma merges.  At
    alpha = 0 only the uncontracted words survive.

    The contributions are integers over one common denominator, so each
    contraction costs one integer addition and each word of the result
    one Fraction."""
    alpha = _as_exact(alpha)
    if not alpha:
        return substitute_t(e, 0)
    e = as_sum(e)
    den, values = _at_alpha(alpha, ((c, max(w.depth, 1)) for w, c in e.terms.items()))
    out = {}
    for w, v in zip(e.terms, values):
        if not v[0]:  # c(alpha) = 0
            continue
        for u in _s_t_word(w):
            out[u] = out.get(u, 0) + v[len(w) - len(u)]
    return _normal_sum({u: _poly({0: Fraction(x, den)}) for u, x in out.items() if x})


def log_s(w: Word) -> FormalSum:
    """Logarithm of the operator family, normalized at parameter 1: the
    sum of the n - 1 single merges of adjacent letters of w.  Zero on
    letters."""
    if w.depth == 0:
        raise ValueError("unit has no contractions")
    return FormalSum(
        (_word(w[:i] + (w[i] + w[i + 1],) + w[i + 2 :]), 1) for i in range(len(w) - 1)
    )


def d_dt(e):
    """Coefficient-wise d/dt."""
    return as_sum(e).map_coefficients(lambda p: p.derivative())


def taylor_shift(e, alpha):
    """Coefficients of e as a polynomial in (t - alpha).

    Returns the t-free formal sums a_0, ..., a_d, d the largest degree
    in t of a coefficient of e (just a_0 = 0 for e = 0), with
    a_k = (d/dt)^k e |_{t=alpha} / k!.  Splitting e by degree into the
    t-free parts P_0, ..., P_d gives the answer at alpha = 0.  Any other
    alpha re-expands the split by Horner's rule on the plain
    {Word: coefficient} parts: for i < d, and j from d - 1 down to i,
    P_j += alpha P_(j+1).  Zeros are dropped once, at the end.
    """
    alpha = _as_exact(alpha)
    e = as_sum(e)
    degree = max((poly.degree for poly in e.terms.values()), default=0)
    parts = [{} for _ in range(degree + 1)]
    for w, poly in e.terms.items():
        for j, c in poly.coeffs.items():
            parts[j][w] = c
    if alpha:
        for i in range(degree):
            for j in range(degree - 1, i - 1, -1):
                for w, c in parts[j + 1].items():
                    parts[j][w] = parts[j].get(w, 0) + alpha * c
    return [_normal_sum({w: _poly({0: c}) for w, c in p.items() if c}) for p in parts]


def index_expansions(idx):
    """All ways of merging adjacent entries of an index, as (Index, merges).

    This is the expansion underlying the interpolated zeta values: each
    gap of the index is either kept (comma) or summed through (plus).
    """
    for u in _s_t_word(idx.to_word()):
        yield Index(u), len(idx) - len(u)


def zeta_t_words(idx):
    """The interpolated zeta value of `idx` written out as a formal sum:
    every merge pattern of the index, weighted by t^merges."""
    return s_t(FormalSum.from_word(idx.to_word()))
