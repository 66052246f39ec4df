"""The interpolation operator on the word algebra.

The operator acts on a word of length n by summing, over all ways of
contracting adjacent letters into blocks, the contracted word weighted by
t^(number of merges).  At t = 0 it is the identity; at t = 1 it sends the
generating series of strict nested sums to that of non-strict ones.  All
routines here are Q[t]-linear in their formal-sum argument.

The operator comes from the first-letter recursion
S(a u) = a S(u) + t (a o S(u)), where a o merges the letter a into the
head of each word (Hoffman, *Quasi-shuffle products*, J. Algebraic
Combin. 11 (2000)).  One word's image is memoised on the tail u; its
2^(n-1) words are distinct, and the memo keeps just those words, as
Words whether it is called with a Word, an Index or a plain tuple: a
contraction u of w carries t^sigma with sigma = len(w) - len(u), its
number of merges.  `s_t` runs the recursion once on the whole sum:
terms are grouped by first letter, and a group of two or more terms
recurses on its tails as one sum, so that equal words merge at every
level.  The unit's group and a group of one word read the memo and
shift degrees by sigma.  `s_alpha` multiplies by alpha^sigma in
integers over one common denominator; `s_poly` multiplies by
param^sigma, each power computed once per call.

The recursion's graded form {word: {degree: int}} is the form a formal
sum stores, over its denominator: `s_t` runs the recursion on a sum's
stored integers and keeps its denominator.  The image of a one-word sum
stores one shifted dict per sigma, shared by the words with that sigma,
so its 2^(n-1) words hold n dicts.  `s_alpha` evaluates each distinct
(stored dict, word length n) once, at alpha^sigma for sigma < n, from
one power table (`algebra._at_alpha`).  `_s_t_lists` runs the recursion
once on many lists of words, each list at its own degree offset, and
empties the result straight into one {word: int} per list and degree
of t; the offset rule and its proof are stated there.  That split by
degree is the form the identities are stated in and the reduction
certificates read.
`_taylor_parts` takes the (t - alpha)^m parts of one side split by
degree, or of the difference of two: at alpha = 0 the split itself, in
the first side's own dicts, and otherwise a copy re-expanded about
alpha = p/q by Horner's rule in integers, each part left as integers
over a power of q.  `taylor_shift` is those parts of one formal sum's
stored integers, split by degree, over its denominator times that
power, stored by `algebra._t_free_sum`, as the certificate targets
are.  Results are built with the trusted constructors of `algebra` from
the validated input.
`enumerate_contractions` reads the same expansion as explicit patterns,
and so do `identities.words_of_weight`, `identities.sum_words` and
`numeric.mzsv`.
"""

from __future__ import annotations

from collections import namedtuple
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
    _reduced,
    _subtract,
    _t_free_sum,
    _word,
    as_sum,
)


class Contraction(namedtuple("Contraction", "marks sigma")):
    """A contraction pattern of a length-n word.

    `marks` are the block boundaries 0 = r0 < r1 < ... < rs = n; letters
    between consecutive marks merge into one block by adding subscripts.
    `sigma` counts the merges, n - s.
    """

    __slots__ = ()

    def __new__(cls, marks, sigma):
        if not marks or marks[0] != 0 or any(a >= b for a, b in zip(marks, marks[1:])):
            raise ValueError(f"invalid contraction marks {marks!r}")
        if sigma != marks[-1] - (len(marks) - 1):
            raise ValueError("sigma inconsistent with marks")
        return super().__new__(cls, marks, sigma)


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
    for u in _s_t_word(w):
        marks = (0, *(mark[s] for s in accumulate(u)))
        out.append((Contraction(marks, len(w) - len(u)), u))
    # ascending marks is ascending bitmask: the first gap where two
    # patterns differ is a mark of the one with the smaller mask
    return sorted(out, key=lambda entry: entry[0].marks)


@cache
def _s_t_word(w) -> tuple[Word, ...]:
    """The words of the operator's image of one word, by the first-letter
    recursion.  Distinct contraction patterns give distinct words (a
    word's partial sums determine it), so the image is these words, each
    u with coefficient t^(len(w) - len(u)).  `w` may be a Word, an Index
    or a plain tuple of letters; the image holds Words whichever of them
    is the first to reach the memo."""
    if len(w) <= 1:
        return (_word(w),)
    a = w[0]
    out = []
    for u in _s_t_word(w[1:]):
        out += (_word((a,) + u), _word((a + u[0],) + u[1:]))
    return tuple(out)


def _s_t_graded(items):
    """The operator on the sum of the (word, {degree: coefficient}) pairs
    `items`, as {word: {degree: coefficient}} with zeros kept: the
    first-letter recursion run on the whole sum, so that equal words merge
    at every level.  The terms are grouped by first letter.  The unit's
    group and a group of one word read each word's `_s_t_word` memo
    whole.  Any other group recurses once on its tails, taken as one sum,
    then prepends its letter a at the same degree and merges a into the
    head at degree + 1."""
    out, groups = {}, {}
    for w, c in items:
        groups.setdefault(w[:1], []).append((w, c))
    for head, group in groups.items():
        if not head or len(group) == 1:
            for w, c in group:
                for v in _s_t_word(w):
                    sigma = len(w) - len(v)
                    acc = out.setdefault(v, {})
                    for deg, x in c.items():
                        acc[deg + sigma] = acc.get(deg + sigma, 0) + x
            continue
        for u, c in _s_t_graded([(w[1:], c) for w, c in group]).items():
            # c belongs to the inner result and is read once more, just
            # below and unchanged, so a new prepended word may keep it
            if (acc := out.setdefault(head + u, c)) is not c:
                for deg, x in c.items():
                    acc[deg] = acc.get(deg, 0) + x
            if u:
                acc = out.setdefault((head[0] + u[0],) + u[1:], {})
                for deg, x in c.items():
                    acc[deg + 1] = acc.get(deg + 1, 0) + x
    return out


def _s_t_lists(word_lists):
    """S^t of the sum of each of the lists of words `word_lists`, each
    word with coefficient 1 (a word named twice counts twice), by degree:
    for each list, yielded in turn, one {word: int} per degree of t below
    the length of its longest word (at least one), from one run of
    `_s_t_graded` on all the lists.

    The offset rule: with K the longest word's length (at least 1),
    list i enters at degree i*K and is read back from degree d as list
    d // K at degree d % K.  Proof: S^t is linear and sends a word w to
    its contractions u with t^sigma, sigma = len(w) - len(u), which is 0
    for the unit and below len(w) <= K otherwise, and the recursion only
    adds coefficients met at one degree.  So what list i contributes
    lands at degree i*K + sigma with 0 <= sigma < L <= K, L the length of
    its longest word (at least 1), and no two lists meet at one degree.
    Every input is positive, so no coefficient cancels to zero.

    The recursion's result is emptied straight into the dicts as it is
    read, so the two copies never both hold the whole batch; each dict
    is new and the caller's to change."""
    lengths = [max(map(len, words), default=0) or 1 for words in word_lists]
    size = max(lengths, default=1)
    graded = _s_t_graded([(u, {i * size: 1}) for i, words in enumerate(word_lists) for u in words])
    sides = [[{} for _ in range(n)] for n in lengths]
    # degree i*K + s -> the dict of list i at degree s
    where = {i * size + s: part for i, side in enumerate(sides) for s, part in enumerate(side)}
    for u in list(graded):
        for deg, x in graded.pop(u).items():
            where[deg][u] = x
    del graded, where  # so that each side goes once its caller lets it go
    sides.reverse()
    while sides:
        yield sides.pop()


def s_poly(e, param):
    """Apply the operator with its parameter replaced by the polynomial
    `param`; Q[t]-linear, so existing coefficients are left alone: each
    contraction u of a word w with sigma merges gets w's coefficient times
    param^sigma, each power computed once per call."""
    param = RatPoly(param)
    powers = [RatPoly(1)]  # param^0, param^1, ..., grown on demand
    pairs = []
    for w, c in as_sum(e).items():
        while len(powers) < len(w):
            powers.append(powers[-1] * param)
        scaled = [c * p for p in powers[: len(w) or 1]]  # by sigma
        pairs += [(u, scaled[len(w) - len(u)]) for u in _s_t_word(w)]
    return FormalSum(pairs)


def s_t(e):
    """The interpolation operator itself (parameter t): each contraction
    with sigma merges shifts the degrees of its coefficient by sigma.
    The whole sum runs through one first-letter recursion on its stored
    integers, over its denominator.  A one-word sum reads the word's memo
    instead, and its words with one sigma share one shifted dict."""
    e = as_sum(e)
    if len(e._graded) == 1:
        [(w, c)] = e._graded.items()
        shifted = [{deg + sigma: x for deg, x in c.items()} for sigma in range(len(w) or 1)]
        return _normal_sum({v: shifted[len(w) - len(v)] for v in _s_t_word(w)}, e._den)
    return _reduced(e._den, _s_t_graded(e._graded.items()))


def s_alpha(e, alpha):
    """The operator at an exact rational parameter value, equal to s_t
    followed by substitution of alpha for t: a term c(t) w contributes
    c(alpha) alpha^sigma to each contraction of w with sigma merges.  At
    alpha = 0 a contracted word gets 0^sigma = 0, so only the uncontracted
    words survive.

    The contributions are integers over one common denominator, so each
    contraction costs one integer addition, each distinct (stored dict,
    word length) one evaluation, and each distinct value of the result
    one stored dict."""
    alpha = _as_exact(alpha)
    e = as_sum(e)
    den, at = _at_alpha(alpha, e, max(map(len, e._graded), default=0) or 1)
    out, values = {}, {}  # (id of a stored dict, n) -> its values for sigma < n
    for w, c in e._graded.items():
        n = len(w)
        if (v := values.get((id(c), n))) is None:
            v = values[id(c), n] = at(c, n or 1)
        if not v[0]:  # c(alpha) = 0
            continue
        for u in _s_t_word(w):
            out[u] = out.get(u, 0) + v[n - len(u)]
    return _t_free_sum(den, out)


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


def _taylor_parts(sides, alpha):
    """The (t - alpha)^m parts, one per dict of lhs, of lhs - rhs for
    `sides` (lhs, rhs), or of lhs for (lhs,): each side split by degree,
    one {word: int} with no zero per degree of t, rhs in at most as many
    dicts as lhs.  Each part is (den, {word: int}) with no zero, the part
    being that over den.  At alpha = 0 the parts are P_0, ..., P_d,
    d = len(lhs) - 1, the split of lhs - rhs: lhs's own dicts, with rhs
    subtracted in place, so lhs is used up.  Any other
    alpha = p/q copies the split, scaled, and re-expands it by Horner's
    rule in integers: the parts R_j = q^(d-j) P_j of q^d e(t/q) are
    shifted to the integer p, for i < d, and j from d - 1 down to i,
    R_j += p R_(j+1), and part m is R_m over q^(d-m).  So R_m is
    sum_j C(j, m) p^(j-m) q^(d-j+m) P_j, with integer factors."""
    lhs = sides[0]
    p, q, d = alpha.numerator, alpha.denominator, len(lhs) - 1
    scales = [q ** (d - j) for j in range(d + 1)]
    parts = [{w: s * x for w, x in part.items()} for s, part in zip(scales, lhs)] if p else lhs
    for side in sides[1:]:
        for j, part in enumerate(side):
            _subtract(parts[j], scales[j], part)
    for i in range(d if p else 0):
        for j in range(d - 1, i - 1, -1):
            for w, c in parts[j + 1].items():
                parts[j][w] = parts[j].get(w, 0) + p * c
    # Horner's rule may cancel an entry to zero
    return [(s, {w: x for w, x in part.items() if x} if p else part)
            for s, part in zip(scales, parts)]


def taylor_shift(e, alpha):
    """Coefficients of e as a polynomial in (t - alpha).

    Returns the t-free formal sums a_0, ..., a_d, d the largest degree
    in t of a coefficient of e (just a_0 = 0 for e = 0), with
    a_k = (d/dt)^k e |_{t=alpha} / k!: the parts of `_taylor_parts` of
    e's stored integers, split into one dict per degree 0, ..., d, over
    e's denominator.
    """
    alpha = _as_exact(alpha)
    e = as_sum(e)
    split = [{} for _ in range(max(map(max, e._graded.values()), default=0) + 1)]
    for w, c in e._graded.items():
        for deg, x in c.items():
            split[deg][w] = x
    parts = _taylor_parts([split], alpha)
    return [_t_free_sum(den * e._den, vec) for den, vec in parts]


def index_expansions(idx):
    """All ways of merging adjacent entries of an index, as (Index, merges).

    This is the expansion underlying the interpolated zeta values: each
    gap of the index is either kept (comma) or summed through (plus).
    """
    for u in _s_t_word(idx):
        yield Index(u), len(idx) - len(u)


def zeta_t_words(idx):
    """The interpolated zeta value of `idx` written out as a formal sum:
    every merge pattern of the index, weighted by t^merges."""
    return s_t(FormalSum.from_word(idx.to_word()))
