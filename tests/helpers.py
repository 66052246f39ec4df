"""Independent oracles and enumeration helpers shared by the test modules.

Everything here is deliberately written against raw tuples and dicts, not
the package's own FormalSum/RatPoly layers, so that a bug in the symbolic
machinery cannot hide inside its own oracle.
"""

import json
import re
import weakref
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from izeta.algebra import FormalSum, RatPoly, Word


def compositions(total):
    """All compositions of `total` into positive parts, as tuples."""
    if total == 0:
        return [()]
    out = []
    for cuts in range(total):
        for cut_set in combinations(range(1, total), cuts):
            marks = (0,) + cut_set + (total,)
            out.append(tuple(marks[i + 1] - marks[i] for i in range(len(marks) - 1)))
    return out


def split_bitmask_words(k):
    """The compositions of k as tuples, ascending in the bitmask whose bit
    i (least significant first) splits 1^k after its (i+1)-th letter."""
    out = []
    for mask in range(1 << (k - 1)):
        parts, cur = [], 1
        for i in range(k - 1):
            if mask >> i & 1:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        out.append(tuple(parts))
    return out


def merge_bitmask_contractions(letters):
    """(marks, merges, contracted letters) of every contraction of a
    nonempty letter tuple, ascending in the bitmask of merged gaps whose
    most significant bit is the gap after the first letter."""
    n = len(letters)
    out = []
    for mask in range(1 << (n - 1)):
        marks = [0] + [g for g in range(1, n) if not mask >> (n - 1 - g) & 1] + [n]
        blocks = tuple(sum(letters[a:b]) for a, b in zip(marks, marks[1:]))
        out.append((tuple(marks), n - len(blocks), blocks))
    return out


def words_up_to_weight(max_weight, max_length=None):
    """All nonempty words with weight <= max_weight (optionally capped length)."""
    out = []
    for w in range(1, max_weight + 1):
        for parts in compositions(w):
            if max_length is None or len(parts) <= max_length:
                out.append(Word(parts))
    return out


def admissible_tuples(max_weight):
    """All admissible index tuples (first part >= 2) of weight <= max_weight."""
    return [p for w in words_up_to_weight(max_weight) for p in [w.letters] if p[0] >= 2]


def quasi_shuffle(u, v, merge_sign):
    """Reference quasi-shuffle of two letter tuples over plain dicts.

    merge_sign +1 gives the overlapping-shuffle (harmonic) product,
    -1 the non-strict variant.  Returns {letter tuple: int multiplicity}.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}

    def add(word, mult):
        out[word] = out.get(word, 0) + mult
        if out[word] == 0:
            del out[word]

    for word, mult in quasi_shuffle(u[1:], v, merge_sign).items():
        add((u[0],) + word, mult)
    for word, mult in quasi_shuffle(u, v[1:], merge_sign).items():
        add((v[0],) + word, mult)
    for word, mult in quasi_shuffle(u[1:], v[1:], merge_sign).items():
        add((u[0] + v[0],) + word, merge_sign * mult)
    return out


def _poly_times(p, q):
    """Product of two {t exponent: coefficient} dicts, zeros kept."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _add_poly(out, word, poly):
    """out[word] += poly on a {letter tuple: {t exponent: coefficient}}
    dict, zeros kept."""
    acc = out.setdefault(word, {})
    for e, c in poly.items():
        acc[e] = acc.get(e, 0) + c


def _without_zeros(graded):
    """A {letter tuple: {t exponent: coefficient}} dict with every zero
    coefficient and every word left without one dropped."""
    out = {word: {e: c for e, c in poly.items() if c} for word, poly in graded.items()}
    return {word: poly for word, poly in out.items() if poly}


def t_quasi_shuffle(u, v):
    """Reference t-product of two letter tuples over plain dicts.

    The quasi-shuffle recursion a u' * b v' = a (u' * b v') + b (a u' * v')
    + (1 - 2t) (a+b)(u' * v') + (t^2 - t) ((a+b) o (u' * v')), where
    (a+b) o adds a+b to the first letter of each nonempty word.  Returns
    {letter tuple: {t exponent: int}}.
    """
    if not u:
        return {v: {0: 1}}
    if not v:
        return {u: {0: 1}}
    a, b = u[0], v[0]
    out = {}
    for word, poly in t_quasi_shuffle(u[1:], v).items():
        _add_poly(out, (a,) + word, poly)
    for word, poly in t_quasi_shuffle(u, v[1:]).items():
        _add_poly(out, (b,) + word, poly)
    for word, poly in t_quasi_shuffle(u[1:], v[1:]).items():
        _add_poly(out, (a + b,) + word, _poly_times({0: 1, 1: -2}, poly))
        if word:
            _add_poly(out, (a + b + word[0],) + word[1:], _poly_times({1: -1, 2: 1}, poly))
    return _without_zeros(out)


def product_of_sums(x, y, word_product):
    """Bilinear extension of a word product over plain dicts: x and y are
    {letter tuple: {t exponent: coefficient}}, and so are word_product(u, v)
    and the result."""
    out = {}
    for u, p in x.items():
        for v, q in y.items():
            pq = _poly_times(p, q)
            for word, r in word_product(u, v).items():
                _add_poly(out, word, _poly_times(pq, r))
    return _without_zeros(out)


def by_word(side):
    """A side split by degree, one {word: int} per degree of t, regrouped
    by word as {word: {degree: int}}."""
    out = {}
    for deg, part in enumerate(side):
        for u, x in part.items():
            out.setdefault(u, {})[deg] = x
    return out


class _WatchedSide(list):
    """A left side that a weak reference can watch."""


def watch_left_sides(monkeypatch, reduction):
    """Spy on the two batch builders that the module `reduction` reads:
    each pair's left side is handed out as a copy of its list that a weak
    reference watches, and before the spy builds each next pair it
    asserts that every left side handed out so far is gone.  Returns the
    weak references, one per pair handed out."""
    refs = []

    def handed(lhs, rhs):
        side = _WatchedSide(lhs)
        refs.append(weakref.ref(side))
        return side, rhs

    def watched(pairs):
        while True:
            assert all(ref() is None for ref in refs), "an earlier left side is still alive"
            pair = next(pairs, None)
            if pair is None:
                return
            # made in a call, so this frame holds no left side while it waits
            yield handed(*pair)

    for name in ("_sum_formula_batch", "_cyclic_batch"):
        build = getattr(reduction, name)
        monkeypatch.setattr(reduction, name, lambda *args, build=build: watched(build(*args)))
    return refs


def dict_to_sum(d):
    """Lift a {letter tuple: multiplicity} dict into a FormalSum."""
    total = FormalSum.zero()
    for letters, mult in d.items():
        total = total + FormalSum.from_word(Word(letters), RatPoly({0: mult}))
    return total


def interpolation_by_recursion(letters):
    """Reference contraction expansion via the head recursion.

    S(a w) = a S(w) + t * (a merged into the head of S(w)), computed on
    plain {letter tuple: {t exponent: Fraction}} dicts.
    """
    if not letters:
        return {(): {0: Fraction(1)}}
    a, rest = letters[0], letters[1:]
    inner = interpolation_by_recursion(rest)
    out = {}

    def add(word, exp, coeff):
        poly = out.setdefault(word, {})
        poly[exp] = poly.get(exp, Fraction(0)) + coeff
        if poly[exp] == 0:
            del poly[exp]
        if not poly:
            del out[word]

    for word, poly in inner.items():
        for exp, coeff in poly.items():
            add((a,) + word, exp, coeff)
            if word:
                add((a + word[0],) + word[1:], exp + 1, coeff)
    return out


def dictpoly_to_sum(d):
    """Lift a {letter tuple: {exponent: Fraction}} dict into a FormalSum."""
    total = FormalSum.zero()
    for letters, poly in d.items():
        total = total + FormalSum.from_word(Word(letters), RatPoly(poly))
    return total


def assert_normal_form(e):
    """Fail unless e is a FormalSum in normal form: Word keys of positive
    int letters, each mapped to a nonzero RatPoly whose exponents are ints
    >= 0 and whose coefficients are nonzero ints or Fractions."""
    assert type(e) is FormalSum, type(e)
    for word, poly in e.terms.items():
        assert type(word) is Word and type(word.letters) is tuple, word
        assert all(type(k) is int and k >= 1 for k in word.letters), word
        assert type(poly) is RatPoly and poly.coeffs, (word, poly)
        for exp, c in poly.coeffs.items():
            assert type(exp) is int and exp >= 0, (word, poly)
            assert type(c) in (int, Fraction) and c != 0, (word, poly)


def brute_nested_sum(parts, m_max, strict):
    """Direct recursive truncated nested sum, no layering, no compensation."""
    if not parts:
        return 1.0
    k, rest = parts[0], parts[1:]
    total = 0.0
    for m in range(1, m_max + 1):
        inner_cap = m - 1 if strict else m
        if strict and inner_cap < len(rest):
            continue
        total += m ** (-float(k)) * brute_nested_sum(rest, inner_cap, strict)
    return total


@lru_cache(maxsize=None)
def truncated_checkpoints(parts, m_max, strict):
    """Truncated nested power sum of a composition, with checkpoints.

    Sums prod(m_i^-k_i) over chains m_max >= m_1 > m_2 > ... > m_n >= 1
    (strict) or m_1 >= ... >= m_n >= 1 (non-strict).  Layers are summed
    innermost first, ascending in the summation variable, with Kahan
    compensation.  Returns the outer partial sums at m_max, m_max//2 and
    m_max//4, ready for Richardson extrapolation.
    """
    shift = 1 if strict else 0
    prev = [1.0] * (m_max + 1)  # the empty tail product, also at m = 0
    for k in reversed(parts):
        cur, s, comp = [0.0], 0.0, 0.0
        for j in range(1, m_max + 1):
            y = (1.0 / j) ** k * prev[j - shift] - comp
            tmp = s + y
            comp = (tmp - s) - y
            s = tmp
            cur.append(s)
        prev = cur
    return prev[m_max], prev[m_max // 2], prev[m_max // 4]


@lru_cache(maxsize=None)
def exact_layers(parts, L):
    """The nested sums of a composition at m = 0..L as exact Fractions:
    sum over m >= n1 > n2 > ... > nr >= 1 of 1/(n1^a1 ... nr^ar), summed
    innermost layer first.  The empty composition is 1 at every m."""
    inner = [Fraction(1)] * (L + 1)
    for a in reversed(parts):
        cur, s = [Fraction(0)], Fraction(0)
        for m in range(1, L + 1):
            s += inner[m - 1] / m**a
            cur.append(s)
        inner = cur
    return tuple(inner)


def letter_splits(parts):
    """The pairs (A_j, B_j), j = 0..w, of the Hölder convolution of an
    admissible index of weight w, built from letters: the word
    omega = x0^(k1-1) x1 ... x0^(kd-1) x1 (x0 = 0, x1 = 1), B_j is omega
    without its first j letters and A_j is those letters reversed, with
    x0 and x1 swapped.  Each word is read back as parts, one per x1."""

    def as_parts(word):
        parts, run = [], 1
        for letter in word:
            if letter:
                parts.append(run)
                run = 1
            else:
                run += 1
        return tuple(parts)

    omega = tuple(letter for k in parts for letter in (0,) * (k - 1) + (1,))
    return [
        (as_parts(1 - x for x in reversed(omega[:j])), as_parts(omega[j:]))
        for j in range(len(omega) + 1)
    ]


def star_fillings(parts):
    """All ways to replace the separators of an index by merges.

    Each binary choice either keeps a comma or adds the neighbors, and the
    number of merges taken is returned alongside the filled tuple.
    """
    if len(parts) == 1:
        return [(tuple(parts), 0)]
    head = parts[0]
    out = []
    for tail, merges in star_fillings(parts[1:]):
        out.append(((head,) + tail, merges))
        out.append(((head + tail[0],) + tail[1:], merges + 1))
    return out


def _add(out, word, c):
    """out[word] += c on a plain dict, dropping the word if it cancels."""
    c += out.get(word, 0)
    if c:
        out[word] = c
    else:
        out.pop(word, None)


@lru_cache(maxsize=None)
def classical_cyclic(v):
    """g(v) = Sigma v - C v, the classical cyclic sum formula of Hoffman
    and Ohno for a letter tuple v, as {letter tuple: int}: over every
    rotation r of v, each split of its head, (r1 + 1 - j, r2, ..., j) for
    1 <= j < r1, minus the raised head, (r1 + 1, r2, ...)."""
    out = {}
    for i in range(len(v)):
        r = v[i:] + v[:i]
        for j in range(1, r[0]):
            _add(out, (r[0] + 1 - j,) + r[1:] + (j,), 1)
        _add(out, (r[0] + 1,) + r[1:], -1)
    return out


def cyclic_merges(w, j):
    """The C(n, j) words from merging j of the n cyclic gaps of the letter
    tuple w (gap i follows letter i, and gap n - 1 joins the last letter to
    the first), for j < n.  Each is read from the first letter that starts
    a block, so a merge across the last gap gives a rotation of the word
    read from letter 0."""
    n = len(w)
    out = []
    for merged in combinations(range(n), j):
        start = next(i for i in range(n) if (i - 1) % n not in merged)
        blocks = []
        for i in range(start, start + n):
            if blocks and (i - 1) % n in merged:
                blocks[-1] += w[i % n]
            else:
                blocks.append(w[i % n])
        out.append(tuple(blocks))
    return out


def cyclic_relation_parts(w, alpha):
    """Closed form of the parts in (t - alpha)^0, ..., (t - alpha)^n of the
    interpolated cyclic relation S^t(Sigma w) - (1 - t) S^t(C w)
    - k t^n z_(k+1) of a letter tuple w of depth n and weight k > n, as
    {letter tuple: Fraction} dicts.

    Its t^j part P_j is the sum of g(v) over the words v of
    `cyclic_merges(w, j)` for j < n, and P_n = 0 (Yamamoto's reduction to
    the classical formula); the (t - alpha)^m part is
    sum_j C(j, m) alpha^(j - m) P_j."""
    n = len(w)
    powers = []
    for j in range(n):
        part = {}
        for v, count in Counter(cyclic_merges(w, j)).items():
            for u, c in classical_cyclic(v).items():
                _add(part, u, count * c)
        powers.append(part)
    shifted = []
    for m in range(n + 1):
        part = {}
        for j in range(m, n):
            scale = comb(j, m) * alpha ** (j - m)  # 0^0 = 1
            for u, c in powers[j].items() if scale else ():
                _add(part, u, scale * c)
        shifted.append(part)
    return shifted


def sum_formula_relation_parts(k, n, alpha):
    """Closed form of the parts in (t - alpha)^0, ..., (t - alpha)^(n-1) of
    the interpolated sum formula of weight k and depth n, S^t(sum of the
    admissible words of weight k and depth n) - z_k sum_poly(k, n), as
    {letter tuple: Fraction} dicts.

    Its t^j part is C(k-n+j-1, j) (sum of the admissible words of depth
    n - j, minus z_k), and the (t - alpha)^m part is
    sum_j C(j, m) alpha^(j - m) C(k-n+j-1, j) (that sum minus z_k)."""
    words = [v for v in compositions(k) if v[0] >= 2]
    shifted = []
    for m in range(n):
        part = {}
        for j in range(m, n):
            scale = comb(j, m) * alpha ** (j - m) * comb(k - n + j - 1, j)  # 0^0 = 1
            for v in words if scale else ():
                if len(v) == n - j:
                    _add(part, v, scale)
            _add(part, (k,), -scale)
        shifted.append(part)
    return shifted


# one printed term of a t-free formal sum: a rational coefficient in
# parentheses times a bracketed word, as in "(-3/2)*[2,1]"
_PRINTED_TERM = re.compile(r"\((-?\d+(?:/\d+)?)\)\*\[(\d+(?:,\d+)*)?\]")


def parse_printed_sum(text):
    """{letter tuple: nonzero Fraction} of a t-free formal sum as printed:
    "(p)*[w]" terms joined by " + ", or "0".  Raises ValueError on any
    other text, a power of t included, and on a repeated word or a zero
    coefficient."""
    out = {}
    for term in [] if text == "0" else text.split(" + "):
        m = _PRINTED_TERM.fullmatch(term)
        if not m:
            raise ValueError(f"not a t-free term: {term!r}")
        word = tuple(int(x) for x in m[2].split(",")) if m[2] else ()
        c = Fraction(m[1])
        if not c or word in out:
            raise ValueError(f"not in normal form: {text!r}")
        out[word] = c
    return out


def printed_certificates_hold(document):
    """Whether each record of a `verify ... --json` document, given as its
    text, is a certificate that holds: marked successful, with one
    coefficient per generator, and target = sum c_i g_i word by word.
    Reads only the printed strings, each printed sum parsed once."""
    parsed = {}

    def sum_of(text):
        if text not in parsed:
            parsed[text] = parse_printed_sum(text)
        return parsed[text]

    verdicts = []
    for record in json.loads(document)["checks"]:
        coeffs, gens = record["coefficients"], record["generators"]
        if coeffs == "FAILURE" or not record["success"] or len(coeffs) != len(gens):
            verdicts.append(False)
            continue
        acc = dict(sum_of(record["target"]))
        for c, g in zip(map(Fraction, coeffs), gens):
            for word, x in sum_of(g).items() if c else ():
                _add(acc, word, -c * x)
        verdicts.append(not acc)
    return verdicts
