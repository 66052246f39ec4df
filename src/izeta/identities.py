"""Builders for the identity families tied to the interpolation operator:
fixed-weight sum families, cyclic generators, the alternating sum, and the
half-parameter translation between star values and odd-letter words.

The sum formula and the cyclic sum formula are each stated once, in
integers split by degree, each side one {word: int} per degree of t, for
a batch of depths or of cyclic words at a time (`_sum_formula_batch`,
`_cyclic_batch`): S^t of a sum of words, times (1 - t), plus z_k times
the interpolation polynomial or k t^n z_(k+1).  The S^t sides of a whole
batch come from one run of the recursion, emptied straight into each
identity's dicts by `interpolate._s_t_lists`, and each identity's pair
is yielded in turn; the reduction certificates read every identity of a
suite from one batch, in that form, and use its dicts up.
`formal_sides` regroups such a pair by word into the pair of formal sums
that the numeric checks evaluate, and `sum_formula_sides` and
`cyclic_sides`, batches of one, are the two identities in that form."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import comb

from .algebra import (
    FormalSum,
    Index,
    RatPoly,
    Word,
    _poly,
    _reduced,
    _word,
    as_sum,
    harmonic_product,
    substitute_t,
    t_harmonic_product,
    word_linear,
)
from .interpolate import _s_t_lists, _s_t_word, s_poly, s_t


def words_of_weight(k):
    """All 2^(k-1) words of weight k, ascending in the split bitmask: the
    contractions of 1^k, read from the operator's expansion of that word
    backwards."""
    if k < 1:
        raise ValueError("weight must be positive")
    return list(reversed(_s_t_word((1,) * k)))


def sum_words(k, n):
    """Sum of all admissible words of weight k and depth n (coefficient 1
    each); there are C(k-2, n-1) of them.  Enumerated in colexicographic
    order of the exponent tuples."""
    _check_depth(k, n)
    return FormalSum(dict.fromkeys(_sum_families(k)[n], RatPoly(1)))


@lru_cache(maxsize=1)
def _sum_families(k):
    """The words of `sum_words(k, n)` for every depth n, from one pass over
    the operator's expansion of z_2 z_1^(k-2): the family of depth n is
    its contractions with k-1-n merges, and the expansion lists its words
    in colexicographic order.  Only the latest weight is kept."""
    families = {}
    for u in _s_t_word((2,) + (1,) * (k - 2)):
        families.setdefault(len(u), []).append(u)
    return families


def _check_depth(k, n):
    """The sum formula's families are empty outside 1 <= n < k."""
    if n < 1 or k <= n:
        raise ValueError(f"empty family: weight {k}, depth {n}")


def _sum_poly_coeffs(k, n):
    """{j: C(k-n+j-1, j) for j < n}, the t^j coefficients of `sum_poly`."""
    _check_depth(k, n)
    return {j: comb(k - n + j - 1, j) for j in range(n)}


def sum_poly(k, n):
    """Weight-k depth-n interpolation polynomial: sum over j < n of
    C(k-1, j) t^j (1-t)^(n-1-j), expanded exactly.  Its t^j coefficient
    is C(k-n+j-1, j), which is what is returned."""
    return _poly(_sum_poly_coeffs(k, n))


def formal_sides(sides):
    """The sides of an identity, each split by degree, one {word: int}
    per degree of t, as the tuple of formal sums they state: the dicts
    are regrouped by word into new ones, and only read."""
    graded = [{} for _ in sides]
    for acc, side in zip(graded, sides):
        for deg, part in enumerate(side):
            for w, x in part.items():
                acc.setdefault(w, {})[deg] = x
    return tuple(_reduced(1, acc) for acc in graded)


def _sum_formula_batch(k, depths):
    """`sum_formula_sides(k, n)` split by degree, n dicts {word: int}
    each, for each depth n of `depths` in turn, the S^t sides of all of
    them from one run of the recursion: the right side is z_k with
    C(k-n+j-1, j) at degree j, built as its depth is yielded.  Every
    depth is checked before any family is read."""
    for n in depths:
        _check_depth(k, n)
    images = _s_t_lists([_sum_families(k)[n] for n in depths])
    for n in depths:
        yield next(images), [{(k,): c} for c in _sum_poly_coeffs(k, n).values()]


def sum_formula_sides(k, n):
    """The two sides of the interpolated sum formula at weight k and depth
    n: S^t of the sum of all admissible words of weight k and depth n, and
    z_k times `sum_poly(k, n)`.  Their values agree for every t."""
    return formal_sides(next(_sum_formula_batch(k, [n])))


def _rotations(parts):
    """The rotations of a nonempty exponent tuple, starting at each
    position in turn."""
    if not parts:
        raise ValueError("cyclic operators need a nonempty word")
    return (parts[l:] + parts[:l] for l in range(len(parts)))


def _raised(w):
    """The words of `cyclic_C(w)`, as tuples, repeats included."""
    return ((rot[0] + 1,) + rot[1:] for rot in _rotations(w))


def _split(w):
    """The words of `cyclic_Sigma(w)`, as tuples, repeats included."""
    return ((rot[0] + 1 - j,) + rot[1:] + (j,)
            for rot in _rotations(w) for j in range(1, rot[0]))


def cyclic_C(w):
    """Sum over rotations of w with the leading exponent raised by one."""
    return FormalSum((_word(u), 1) for u in _raised(w))


def cyclic_Sigma(w):
    """Sum over rotations and over splittings of the rotated head: the
    head k becomes k+1-j in front and a trailing letter j, 1 <= j < k."""
    return FormalSum((_word(u), 1) for u in _split(w))


def cyclic_delta(w):
    """Sum over cyclic merges of two adjacent exponents (cyclically), the
    merged entry leading.  Defined for words of length >= 2."""
    if len(w) < 2:
        raise ValueError("delta undefined for words of length < 2")
    return FormalSum((_word((rot[0] + rot[1],) + rot[2:]), 1) for rot in _rotations(w))


def _cyclic_batch(words):
    """`cyclic_sides(w)` split by degree, n + 1 dicts {word: int} each
    for w of depth n, for each word w of `words` in turn, the S^t sides
    of all of them from one run of the recursion."""
    for w in words:
        if w.depth == 0 or w.weight <= w.depth:
            raise ValueError(f"excluded by n < k: word {w!r}")
    images = _s_t_lists([list(side(w)) for w in words for side in (_split, _raised)])
    for w in words:
        lhs, raised = next(images), next(images)
        # the raised words all have length n, so the words of the image's
        # part T_d have length n - d; part d of the image times 1 - t is
        # T_d beside -T_(d-1), which share no word: in place, top down.
        # T_(n-1) is n z_(k+1), since every word of C w contracts to it,
        # so part n is (k - n) z_(k+1) with k t^n z_(k+1) added
        raised.append({(w.weight + 1,): w.weight - w.depth})
        for d in range(w.depth - 1, 0, -1):
            raised[d].update({u: -x for u, x in raised[d - 1].items()})
        yield lhs, raised
        del lhs, raised  # so that they go once the caller is done with them


def cyclic_sides(w):
    """The two sides of the interpolated cyclic sum formula for a word w of
    weight k and depth n < k: S^t(Sigma w), the rotations split at the
    head, and (1 - t) S^t(C w) + k t^n z_{k+1}, the rotations with the head
    raised.  Their values agree for every t."""
    return formal_sides(next(_cyclic_batch([w])))


def csf_generator(w):
    """The t-polynomial combination of cyclic sums whose vanishing under
    evaluation expresses the cyclic relation for w: the two sides of
    `cyclic_sides` subtracted.

    Defined for words whose weight exceeds their depth (otherwise the
    split side is empty)."""
    lhs, rhs = cyclic_sides(w)
    return lhs - rhs


def csf_generator_linear(e):
    """csf_generator extended linearly over a formal sum of words."""
    return word_linear(csf_generator, as_sum(e))


def alt_sum(letters):
    """Alternating sum over cut points of the sequence a_1..a_n of
    (operator at t on the prefix) * (operator at 1-t on the reversed
    suffix); identically zero as a formal sum over Q[t]."""
    letters = Word(letters)
    if not letters:
        raise ValueError("letter sequence must be nonempty")
    n = len(letters)
    one_minus_t = RatPoly({0: 1, 1: -1})
    total = FormalSum.zero()
    for cut in range(n + 1):
        prefix = FormalSum.from_word(Word(letters[:cut]))
        suffix_rev = FormalSum.from_word(Word(letters[cut:][::-1]))
        term = harmonic_product(s_t(prefix), s_poly(suffix_rev, one_minus_t))
        total = total + term * ((-1) ** cut)
    return total


def _blocks(j):
    """The block sizes j1, ..., jn as ints: at least one, none negative."""
    js = tuple(j)
    if not js:
        raise ValueError("need at least one block")
    if any(type(x) is not int for x in js):
        raise ValueError(f"block sizes must be integers, got {js!r}")
    if any(x < 0 for x in js):
        raise ValueError("block sizes must be nonnegative")
    return js


def two_one_lhs_index(j):
    """Index ({2}^j1, 1, {2}^j2, 1, ..., {2}^jn, 1).  Admissibility of the
    star value requires j1 >= 1."""
    js = _blocks(j)
    if js[0] < 1:
        raise ValueError("non-admissible star index: leading block empty")
    parts = []
    for x in js:
        parts.extend([2] * x)
        parts.append(1)
    return Index(parts)


def two_one_rhs_word(j):
    """Word (2*j1+1, ..., 2*jn+1) together with the scale 2^n."""
    js = _blocks(j)
    return Word(2 * x + 1 for x in js), Fraction(2) ** len(js)


def odd_product_check(u, v):
    """Check, for two words over odd subscripts, that the half-parameter
    product computed in the z-letters agrees with the y-word recursion
    (y_j standing for twice z_{2j+1}, circle acting by index addition)."""
    for w in (u, v):
        if any(a % 2 == 0 for a in w):
            raise ValueError(f"outside odd subalgebra: {w!r}")

    @cache
    def y_product(yu, yv):
        """Recursive product on y-words mirroring the half-parameter
        product on the odd-letter subalgebra: y_i u * y_j v = y_i (u * y_j v)
        + y_j (y_i u * v) - (y_(i+j+1) o (u * v)), where y_c o merges into
        the first y-letter (y_p has z-subscript 2p+1) and kills the empty
        word.  Returns {word: coeff} with no zero coefficient."""
        if not yu:
            return {yv: Fraction(1)}
        if not yv:
            return {yu: Fraction(1)}
        i, u = yu[0], yu[1:]
        j, v = yv[0], yv[1:]
        acc = {(i,) + w: c for w, c in y_product(u, yv).items()}
        for w, c in y_product(yu, v).items():
            key = (j,) + w
            acc[key] = acc.get(key, 0) + c
        for w, c in y_product(u, v).items():
            if w:
                key = (i + j + 1 + w[0],) + w[1:]
                acc[key] = acc.get(key, 0) - c
        return {w: c for w, c in acc.items() if c}

    half = Fraction(1, 2)
    direct = substitute_t(t_harmonic_product(as_sum(u), as_sum(v)), half)
    scale = Fraction(2) ** (u.depth + v.depth)
    # w -> ((a - 1) / 2 for a in w) is one to one, so each y-word comes once
    in_y = {}
    for w, c in direct.terms.items():
        if any(a % 2 == 0 for a in w):
            return False  # escaped the odd subalgebra
        in_y[tuple((a - 1) // 2 for a in w)] = c.constant() * scale / 2**w.depth
    yu = tuple((a - 1) // 2 for a in u)
    yv = tuple((a - 1) // 2 for a in v)
    return in_y == y_product(yu, yv)
