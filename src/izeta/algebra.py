"""Exact core of the interpolated harmonic algebra on words.

Words are noncommutative monomials z_{k1}...z_{kn} in letters indexed by
positive integers; a letter is represented by its subscript.  Formal sums
carry coefficients in Q[t] (:class:`RatPoly`), so one representation covers
the harmonic (stuffle) product, the star variant, and the one-parameter
family of products joining them.  All three run one quasi-shuffle
recursion (`_quasi_shuffle`) and differ only in the coefficients of its
two overlap terms: (merge, circ) = (1, none) for the harmonic product,
(-1, none) for the star product and (1 - 2t, t^2 - t) for the t-product.
A product of two sums adds the memoised word products up in plain
{word: {degree: coefficient}} dicts and builds one RatPoly per word of
the result (`_graded_sum`); `substitute_t` and `interpolate.s_alpha` add
up integers over one denominator and build one RatPoly per distinct value
(`_t_free_sum`).

Everything is exact: coefficients are ints or :class:`fractions.Fraction`,
never floats.  Values are immutable once constructed, so one RatPoly may
be the coefficient of many words, and no operation changes a coefficient
it was given.  The module-level product caches rely on the GIL's atomic
dict operations, so shared use across threads is safe (at worst a value
is computed twice).

Every result is in normal form: words have positive int letters, and
polynomials have int exponents >= 0 and nonzero int or Fraction
coefficients; no polynomial and no formal sum stores a zero.  The public
constructors (`Word`, `RatPoly`, `FormalSum`) check and normalise what they
are given.  The private constructors `_word`, `_poly` and `_normal_sum`
set the slot as given and check nothing.  Only the package's own exact
layer (`algebra`, `interpolate`, `identities`, `reduction`) may call them,
and only with data derived from already validated Words and RatPolys and
already in normal form: letters and coefficients taken from existing
values, or sums and products of them with the zeros dropped.  Input from
a caller never goes to them; `cli` never calls them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import lcm


def _as_exact(c):
    """Accept ints and Fractions, reject anything inexact, and bools."""
    if isinstance(c, (int, Fraction)) and type(c) is not bool:
        return c
    raise TypeError(f"exact rational coefficient required, got {type(c).__name__}")


class RatPoly:
    """Univariate polynomial in t with exact rational coefficients.

    Stored sparsely as {exponent: coefficient} with no zero values.
    Arithmetic never leaves the exact world; evaluation returns a Fraction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, RatPoly):
            self.coeffs = coeffs.coeffs
            return
        if not isinstance(coeffs, dict):
            coeffs = {0: coeffs}  # a constant, checked below
        cleaned = {}
        for e, c in coeffs.items():
            if type(e) is not int:
                raise ValueError(f"exponent must be an integer, got {e!r}")
            if e < 0:
                raise ValueError("negative exponent")
            c = _as_exact(c)
            if c:
                cleaned[e] = c
        self.coeffs = cleaned

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        """Largest stored exponent; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def constant(self):
        """Coefficient of t^0."""
        return self.coeffs.get(0, 0)

    def is_constant(self):
        return self.coeffs.keys() <= {0}

    def __add__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly(other)
        return self + -other

    def __rsub__(self, other):
        return RatPoly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            if not other:
                return _poly({})
            return _poly({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, RatPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return _poly({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise ValueError("nonnegative integer power required")
        out = RatPoly(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            other = RatPoly(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its number (see __eq__), so it must hash as it
        key = self.constant() if self.is_constant() else frozenset(self.coeffs.items())
        return hash(key)

    def evaluate(self, alpha):
        """Exact value at t = alpha (alpha an int or Fraction)."""
        alpha = Fraction(_as_exact(alpha))
        return sum((c * alpha**e for e, c in self.coeffs.items()), Fraction(0))

    def derivative(self):
        return _poly({e - 1: e * c for e, c in self.coeffs.items() if e > 0})

    def compose(self, inner):
        """Substitute the polynomial `inner` for t (Horner)."""
        inner = RatPoly(inner)
        out = RatPoly(0)
        for e in range(self.degree, -1, -1):
            out = out * inner + RatPoly(self.coeffs.get(e, 0))
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        out = ""
        for i, e in enumerate(sorted(self.coeffs)):
            c = self.coeffs[e]
            neg = c < 0
            mag = -c if neg else c
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if i == 0:
                out = ("-" if neg else "") + body
            else:
                out += (" - " if neg else " + ") + body
        return out

    def __repr__(self):
        return f"RatPoly('{self}')"


def _poly(coeffs):
    """RatPoly over `coeffs` as given, unchecked: {int exponent >= 0:
    nonzero int or Fraction}, never caller input (see the module
    docstring)."""
    p = object.__new__(RatPoly)
    p.coeffs = coeffs
    return p


#: The indeterminate t.
T = RatPoly({1: 1})


def _check_letter(k):
    if type(k) is not int or k < 1:
        raise ValueError(f"letter subscript must be a positive integer, got {k!r}")
    return k


class Word(tuple):
    """A word z_{k1}...z_{kn}: the tuple (k1, ..., kn) of its subscripts.

    A Word is that tuple, so it hashes, compares and orders as one:
    Word(x) == tuple(x), and words order lexicographically by subscripts,
    which fixes the term order used for printing and pivot selection.
    Tuple operations such as w + v and n * w return plain tuples.  The
    empty word is the unit of all three products.
    """

    __slots__ = ()

    def __new__(cls, letters=()):
        return tuple.__new__(cls, [_check_letter(k) for k in letters])

    @property
    def letters(self):
        """The subscripts as a plain tuple."""
        return tuple(self)

    @property
    def weight(self):
        return sum(self)

    @property
    def depth(self):
        return len(self)

    def __str__(self):
        return ",".join(map(str, self))

    def __repr__(self):
        return f"Word('{self}')"


def _word(letters):
    """Word over the tuple `letters` as given, unchecked: positive ints
    taken from validated words, never caller input (see the module
    docstring)."""
    return tuple.__new__(Word, letters)


class Index(Word):
    """Exponent tuple (k1,...,kn) of a nested zeta sum: a nonempty Word.

    An Index equals the Word, and the tuple, of the same subscripts; it
    adds the admissibility question (k1 >= 2) that decides convergence.
    Formal sums hold Words only, so `to_word` gives the Word to use there.
    """

    __slots__ = ()

    def __new__(cls, parts):
        self = super().__new__(cls, parts)
        if not self:
            raise ValueError("index must be nonempty")
        return self

    parts = Word.letters  # the exponents as a plain tuple

    @property
    def admissible(self):
        return self[0] >= 2

    def to_word(self):
        return _word(self)

    def __repr__(self):
        return f"Index('{self}')"


class FormalSum:
    """Finite Q[t]-linear combination of words, kept in normal form.

    Normal form means: no stored zero coefficients, each word at most once.
    Addition, subtraction and scalar multiplication (by ints, Fractions or
    polynomials) are the only overloaded operators; the algebra products
    live in module functions since there are three of them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = {}
        _add_into(self.terms, _checked_terms(terms))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls):
        return cls({Word(): RatPoly(1)})

    @classmethod
    def from_word(cls, word, coeff=1):
        return cls({word if isinstance(word, Word) else Word(word): coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def items(self):
        return self.terms.items()

    def words(self):
        return self.terms.keys()

    def coefficient(self, word):
        return self.terms.get(word, RatPoly(0))

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms.items())
        return _normal_sum(out)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _normal_sum({w: -p for w, p in self.terms.items()})

    def __mul__(self, scalar):
        if type(scalar) is bool or not isinstance(scalar, (int, Fraction, RatPoly)):
            return NotImplemented
        if not scalar:
            return _normal_sum({})
        # Q[t] has no zero divisors: no product of nonzero terms vanishes
        return _normal_sum({w: p * scalar for w, p in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, p) for w, p in self.terms.items()))

    def is_t_free(self):
        return all(p.is_constant() for p in self.terms.values())

    def map_coefficients(self, f):
        """Apply f to every coefficient polynomial; drops resulting zeros."""
        return FormalSum({w: f(p) for w, p in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[w]})*[{w}]" for w in sorted(self.terms))

    def __repr__(self):
        return f"FormalSum('{self}')"


def _normal_sum(terms):
    """FormalSum over the dict `terms` as given, unchecked: {Word: nonzero
    RatPoly}, built by the exact layer and owned by the result (see the
    module docstring)."""
    e = object.__new__(FormalSum)
    e.terms = terms
    return e


def _checked_terms(terms):
    """The (Word, RatPoly) pairs of caller input `terms` (a dict or
    pairs), each checked, with zero coefficients skipped."""
    for w, c in terms.items() if isinstance(terms, dict) else terms:
        if type(w) is not Word:  # an Index too: keys are exactly Words
            raise TypeError(f"FormalSum keys must be Words, got {type(w).__name__}")
        p = c if isinstance(c, RatPoly) else RatPoly(c)
        if p.coeffs:
            yield w, p


def _add_into(out, terms):
    """Add the (Word, RatPoly) pairs `terms` into the dict `out` of a sum
    being built, dropping each word whose coefficient cancels."""
    for w, p in terms:
        q = out.get(w)
        if q is None:
            out[w] = p
        elif p := q + p:
            out[w] = p
        else:
            del out[w]


def _graded_sum(graded):
    """The formal sum of {word: {degree: coefficient}}, zeros dropped."""
    terms = {}
    for u, acc in graded.items():
        if p := {deg: x for deg, x in acc.items() if x}:
            # memo words are Words already; the recursion builds tuples
            terms[u if type(u) is Word else _word(u)] = _poly(p)
    return _normal_sum(terms)


def _t_free_sum(den, vec):
    """The t-free formal sum of {word: integer} over den, zeros dropped:
    one RatPoly per distinct value, shared by the words that take it, its
    coefficient an int when den is 1 and a Fraction otherwise."""
    shared, terms = {}, {}
    for w, x in vec.items():
        if x:
            if (p := shared.get(x)) is None:
                p = shared[x] = _poly({0: Fraction(x, den) if den > 1 else x})
            terms[w if type(w) is Word else _word(w)] = p
    return _normal_sum(terms)


def as_sum(x):
    """Coerce a Word into the corresponding one-term FormalSum."""
    if isinstance(x, FormalSum):
        return x
    if isinstance(x, Word):
        return FormalSum.from_word(x)
    raise TypeError(f"expected Word or FormalSum, got {type(x).__name__}")


def word_linear(f, e):
    """Extend a word-level map f: Word -> FormalSum linearly over e."""
    return FormalSum(
        (u, c * d) for w, c in as_sum(e).terms.items() for u, d in f(w).terms.items()
    )


def _at_alpha(alpha, polys):
    """The values c(alpha) alpha^s for s < n, for each pair (c, n) of a
    nonzero RatPoly c and a count n >= 1, as integers over one common
    denominator: returns (den, [[den c(alpha) alpha^s for s < n], ...]).

    For alpha = p/q, den is the lcm L of the denominators of the c times
    q^top, top the largest deg c + n - 1.  With d = deg c, the integer
    N = L q^d c(alpha) gives each value as N p^s q^(top - d - s), so no
    gcd is taken until the caller divides by den.
    """
    polys = list(polys)
    p, q = alpha.numerator, alpha.denominator
    scale = lcm(*{x.denominator for c, _ in polys for x in c.coeffs.values()})
    top = max((max(c.coeffs) + n - 1 for c, n in polys), default=0)
    ps, qs = [1], [1]
    for _ in range(top):
        ps.append(ps[-1] * p)
        qs.append(qs[-1] * q)
    values = []
    for c, n in polys:
        d = max(c.coeffs)
        num = sum(
            x.numerator * (scale // x.denominator) * ps[j] * qs[d - j]
            for j, x in c.coeffs.items()
        )
        values.append([num * ps[s] * qs[top - d - s] for s in range(n)])
    return scale * qs[top], values


def substitute_t(e, alpha):
    """Evaluate every coefficient of e at t = alpha (exact rational)."""
    e = as_sum(e)
    den, values = _at_alpha(_as_exact(alpha), ((p, 1) for p in e.terms.values()))
    return _t_free_sum(den, {w: v for w, (v,) in zip(e.terms, values)})


def circle(a, b):
    """Circle product of two letters: subscripts add."""
    return _check_letter(a) + _check_letter(b)


def circle_act(a, e):
    """Act by the letter a on a formal sum: a acts as zero on the unit
    word and merges into the first letter otherwise."""
    _check_letter(a)
    # distinct words stay distinct, so no coefficients merge
    return _normal_sum(
        {
            _word((a + w[0],) + w[1:]): c
            for w, c in as_sum(e).terms.items()
            if w
        }
    )


def _prepend(a, e, scale=1):
    """The terms of a e, the letter a prepended to each word of e, with
    each coefficient times the nonzero scale."""
    one = scale == 1
    for w, c in e.terms.items():
        yield _word((a,) + w), c if one else c * scale


def _quasi_shuffle(merge, circ=None):
    """The cached word-level product of one member of the quasi-shuffle
    family (Hoffman, *Quasi-shuffle products*, J. Algebraic Combin. 11
    (2000)): the empty word is the unit, and for letters a, b

        a u * b v = a (u * b v) + b (a u * v)
                    + merge (a+b)(u * v) + circ ((a+b) o (u * v)),

    where (a+b) o merges the letter a+b into the head of each word.

        product     merge     circ
        harmonic    1         none
        star        -1        none
        t           1 - 2t    t^2 - t
    """

    @cache
    def word_product(w1: Word, w2: Word) -> FormalSum:
        if not w1:
            return FormalSum.from_word(w2)
        if not w2:
            return FormalSum.from_word(w1)
        a, u = w1[0], _word(w1[1:])
        b, v = w2[0], _word(w2[1:])
        inner = word_product(u, v)
        out = dict(_prepend(a, word_product(u, w2)))
        _add_into(out, _prepend(b, word_product(w1, v)))
        _add_into(out, _prepend(a + b, inner, merge))
        if circ is not None:
            _add_into(out, (circ * circle_act(a + b, inner)).items())
        return _normal_sum(out)

    return word_product


_harmonic_ww = _quasi_shuffle(1)
_star_ww = _quasi_shuffle(-1)
_t_harmonic_ww = _quasi_shuffle(RatPoly({0: 1, 1: -2}), RatPoly({1: -1, 2: 1}))


def _bilinear(word_product, e1, e2):
    """The product of two sums, the memoised word products added up in
    {word: {degree: coefficient}}: one RatPoly per word of the result."""
    out = {}
    for w1, c1 in as_sum(e1).terms.items():
        for w2, c2 in as_sum(e2).terms.items():
            c12 = (c1 * c2).coeffs
            for w, c in word_product(w1, w2).terms.items():
                acc = out.setdefault(w, {})
                for d, x in c.coeffs.items():
                    for d12, x12 in c12.items():
                        acc[d + d12] = acc.get(d + d12, 0) + x * x12
    return _graded_sum(out)


def harmonic_product(e1, e2):
    """Quasi-shuffle (stuffle) product: overlapping letters merge with +."""
    return _bilinear(_harmonic_ww, e1, e2)


def star_product(e1, e2):
    """Star variant of the quasi-shuffle: overlaps merge with weight -1."""
    return _bilinear(_star_ww, e1, e2)


def t_harmonic_product(e1, e2):
    """One-parameter product interpolating between the harmonic product
    (t = 0) and the star product (t = 1); coefficients live in Q[t]."""
    return _bilinear(_t_harmonic_ww, e1, e2)


# ---------------------------------------------------------------------------
# text round-trip

def parse_word(text):
    """The Word written as comma-separated letters, such as "2,1,1" (the
    form `str(Word)` prints); spaces around letters are ignored, and blank
    text is the empty word.  Raises ValueError for a letter that is not an
    integer or is below 1."""
    s = text.strip()
    if not s:
        return Word()
    try:
        return Word(int(p) for p in s.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed word {text!r}: {exc}") from None


def parse_index(text):
    """The Index written as comma-separated parts, such as "2,1"; spaces
    around parts are ignored.  Raises ValueError for blank text, or for a
    part that is not an integer or is below 1.  Admissibility is not
    checked here."""
    s = text.strip()
    if not s:
        raise ValueError("index must be nonempty")
    try:
        return Index(int(p) for p in s.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed index {text!r}: {exc}") from None


_POLY_TERM_RE = re.compile(
    r"^(?:(?P<c>\d+(?:/\d+)?)\*?)?(?:(?P<t>t)(?:\^(?P<e>\d+))?)?$"
)


def parse_ratpoly(text):
    """The RatPoly written as terms joined by + and -, such as
    "1 - 2/3*t^2" (the form `str(RatPoly)` prints): a term is c, t^e, c*t^e
    or ct^e, with c an integer or p/q, e a nonnegative integer, and t for
    t^1.  Raises ValueError for blank text, a malformed term, or a
    coefficient with denominator 0."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    tokens = re.split(r"\s*([+-])\s*", s)
    if tokens[0] == "":
        tokens = tokens[1:]  # leading sign
    else:
        tokens = ["+"] + tokens
    coeffs = {}
    for sign_tok, term in zip(tokens[0::2], tokens[1::2]):
        m = _POLY_TERM_RE.match(term)
        if not m or (m["c"] is None and m["t"] is None):
            raise ValueError(f"malformed polynomial term {term!r}")
        try:
            c = Fraction(m["c"] or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in polynomial term {term!r}") from None
        e = 0 if m["t"] is None else (int(m["e"]) if m["e"] else 1)
        sign = -1 if sign_tok == "-" else 1
        coeffs[e] = coeffs.get(e, 0) + sign * c
    return RatPoly(coeffs)


_SUM_TERM_RE = re.compile(r"\(([^()]*)\)\*\[([0-9, ]*)\]")


def parse_formal_sum(text):
    """The FormalSum written as "0" or as terms (p)*[w] joined by " + ",
    with p read by `parse_ratpoly` and w by `parse_word` (the form
    `str(FormalSum)` prints).  Raises ValueError for text that is not of
    that form, and whatever those two parsers raise for a term."""
    s = text.strip()
    if s == "0":
        return FormalSum.zero()
    # polynomials may themselves contain " + ", so match terms left to
    # right and insist the whole string is covered
    out = []
    pos = 0
    while pos < len(s):
        m = _SUM_TERM_RE.match(s, pos)
        if not m:
            raise ValueError(f"malformed formal sum near {s[pos:]!r}")
        out.append((parse_word(m.group(2)), parse_ratpoly(m.group(1))))
        pos = m.end()
        if pos < len(s):
            if not s.startswith(" + ", pos):
                raise ValueError(f"malformed formal sum near {s[pos:]!r}")
            pos += 3
    return FormalSum(out)
