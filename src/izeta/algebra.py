"""Exact core of the interpolated harmonic algebra on words.

Words are noncommutative monomials z_{k1}...z_{kn} in letters indexed by
positive integers; a letter is represented by its subscript.  Formal sums
carry coefficients in Q[t], so one representation covers the harmonic
(stuffle) product, the star variant, and the one-parameter family of
products joining them.  All three run one quasi-shuffle recursion
(`_quasi_shuffle`) and differ only in the coefficients of its two overlap
terms: (merge, circ) = (1, none) for the harmonic product, (-1, none) for
the star product and (1 - 2t, t^2 - t) for the t-product.

A formal sum stores one exact form: a positive denominator and, for each
word, its coefficient times that denominator as {degree in t: int}.  The
products, `substitute_t` and the operator in `interpolate` read and write
those integers: a product adds the memoised word products up over the
product of the two denominators, and a substitution at alpha = p/q
evaluates each distinct stored dict once (`_at_each`), keyed by id, from
one table of the products p^i q^(top-i), over one common denominator.
Results are reduced (`_reduced`, `_t_free_sum`), so that equal sums
store equal data and == and hash are dict operations.
:class:`RatPoly`, the public coefficient type, is built only when a
sum's coefficients are read: `terms`, `items()` and `coefficient()`;
`str` renders the stored integers, one text per distinct dict.

Everything is exact: coefficients are ints or :class:`fractions.Fraction`,
never floats.  Values are immutable once constructed: a stored dict may
be the coefficient of many words, of many sums and of a memo entry, and no
operation changes a dict once stored.  The module-level product caches
rely on the GIL's atomic dict operations, so shared use across threads is
safe (at worst a value is computed twice).

Every result is in normal form: words have positive int letters, and
coefficients have int degrees >= 0 and nonzero ints over a denominator
with no factor common to all of them; no polynomial and no formal sum
stores a zero.  The public constructors (`Word`, `RatPoly`, `FormalSum`)
check and normalise what they are given.  The private constructors
`_word`, `_poly` and `_normal_sum` set the slots as given and check
nothing.  Only the package's own exact layer (`algebra`, `interpolate`,
`identities`, `reduction`) may call them, and only with data derived
from already validated values and already in normal form: letters and
coefficients taken from existing values, or sums and products of them
with the zeros dropped and the result reduced.  Input from a caller
never goes to them; `cli` never calls them.  The stored form is read by
that layer and by `numeric`, never written outside `algebra`'s
constructors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm


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
        return _poly(_plus(self.coeffs, RatPoly(other).coeffs))

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + -RatPoly(other)

    def __rsub__(self, other):
        return RatPoly(other) - self

    def __mul__(self, other):
        if type(other) is bool or not isinstance(other, (int, Fraction, RatPoly)):
            return NotImplemented
        return _poly(_poly_mul(self.coeffs, RatPoly(other).coeffs))

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
        return _poly_text(self.coeffs)

    def __repr__(self):
        return f"RatPoly('{self}')"


def _poly_text(coeffs, den=1):
    """The text of the polynomial {degree: coefficient} over den, as
    `str(RatPoly)` prints it: terms by rising degree, and a Fraction
    built only for a coefficient over den > 1."""
    if not coeffs:
        return "0"
    out = ""
    for i, e in enumerate(sorted(coeffs)):
        c = coeffs[e] if den == 1 else Fraction(coeffs[e], den)
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

    A sum is stored in integers: one positive denominator, and for each
    word its coefficient times that denominator, {degree in t: int}.
    Normal form means: no stored zero and no word without a coefficient,
    each word at most once, and no factor common to the denominator and
    every integer, so that equal sums store equal data.  `terms` shows
    the coefficients as RatPolys, built when first read.  Addition,
    subtraction and scalar multiplication (by ints, Fractions or
    polynomials) are the only overloaded operators; the algebra products
    live in module functions since there are three of them.
    """

    __slots__ = ("_den", "_graded", "_terms")

    def __init__(self, terms=()):
        rational = {}
        for w, c in terms.items() if isinstance(terms, dict) else terms:
            if type(w) is not Word:  # an Index too: keys are exactly Words
                raise TypeError(f"FormalSum keys must be Words, got {type(w).__name__}")
            c = RatPoly(c).coeffs
            rational[w] = _plus(rational[w], c) if w in rational else c
        # the lcm of the denominators shares no factor with every numerator
        den = lcm(*(x.denominator for c in rational.values() for x in c.values()))
        self._den, self._terms = den, None
        self._graded = {
            w: {d: x.numerator * (den // x.denominator) for d, x in c.items()}
            for w, c in rational.items() if c
        }

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls):
        return cls({Word(): RatPoly(1)})

    @classmethod
    def from_word(cls, word, coeff=1):
        if not isinstance(word, Word):
            word = Word(word)
        if type(word) is not Word or type(coeff) not in (int, Fraction):
            return cls({word: coeff})  # the constructor's checks and errors
        if not coeff:
            return _normal_sum({})
        # a Fraction is in lowest terms; a stored dict is never changed
        return _normal_sum({word: _ONE if coeff == 1 else {0: coeff.numerator}},
                           coeff.denominator)

    @property
    def terms(self):
        """The coefficients as {Word: RatPoly}, built when first read and
        then kept: the words of one value share one RatPoly."""
        if self._terms is None:
            self._terms = _view(self._den, self._graded)
        return self._terms

    def is_zero(self):
        return not self._graded

    def __bool__(self):
        return bool(self._graded)

    def __len__(self):
        return len(self._graded)

    def items(self):
        return self.terms.items()

    def words(self):
        return self._graded.keys()

    def coefficient(self, word):
        c = self._graded.get(word)
        return RatPoly(0) if c is None else _view(self._den, {word: c})[word]

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        den = lcm(self._den, other._den)
        return _combined(den, [(e._graded, {0: den // e._den}) for e in (self, other)])

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        if type(scalar) is bool or not isinstance(scalar, (int, Fraction, RatPoly)):
            return NotImplemented
        s = FormalSum({Word(): scalar})  # the scalar in integers
        return _combined(self._den * s._den, [(self._graded, c) for c in s._graded.values()])

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, FormalSum) and (
            (self._den, self._graded) == (other._den, other._graded)
        )

    def __hash__(self):
        items = self._graded.items()
        return hash((self._den, frozenset((w, frozenset(c.items())) for w, c in items)))

    def is_t_free(self):
        return all(len(c) == 1 and 0 in c for c in self._graded.values())

    def map_coefficients(self, f):
        """Apply f to every coefficient polynomial; drops resulting zeros."""
        return FormalSum({w: f(p) for w, p in self.terms.items()})

    def __str__(self):
        # from the stored integers, one text per distinct dict: no RatPoly
        text = {id(c): c for c in self._graded.values()}
        text = {i: _poly_text(c, self._den) for i, c in text.items()}
        return _sum_text((text[id(c)], str(w)) for w, c in sorted(self._graded.items()))

    def __repr__(self):
        return f"FormalSum('{self}')"


def _sum_text(terms):
    """The text of a formal sum from its terms in word order, each the
    text of its coefficient and of its word: "(c)*[w]" joined by " + ",
    or "0" if there is none.  `str(FormalSum)` and the certificate
    records of `reduction` print sums through it."""
    return " + ".join([f"({c})*[{w}]" for c, w in terms]) or "0"


def _normal_sum(graded, den=1):
    """FormalSum of the integers `graded` over den as given, unchecked:
    {Word: {int degree >= 0: nonzero int}} with no empty dict, and den a
    positive int with no factor common to every integer (see the module
    docstring).  The dicts become the result's, to be read and shared,
    never changed."""
    e = object.__new__(FormalSum)
    e._den, e._graded, e._terms = den, graded, None
    return e


def _view(den, graded):
    """{Word: RatPoly} of the integers `graded` over den: int coefficients
    if den is 1, Fractions otherwise, and one RatPoly per value, shared by
    the words that take it.  RatPoly(c) copies c, since a RatPoly's coeffs
    are public and a stored dict may be shared with other sums and with
    the product memo."""
    by_id, by_value, out = {}, {}, {}  # a stored dict's id, or its items -> RatPoly
    for w, c in graded.items():
        if (p := by_id.get(id(c))) is None:
            p = RatPoly(c) if den == 1 else _poly({d: Fraction(x, den) for d, x in c.items()})
            p = by_id[id(c)] = by_value.setdefault(frozenset(p.coeffs.items()), p)
        out[w] = p
    return out


def _subtract(acc, factor, row):
    """acc -= factor * row on sparse dicts, dropping what cancels."""
    for key, c in row.items():
        nc = acc.get(key, 0) - factor * c
        if nc:
            acc[key] = nc
        else:
            acc.pop(key, None)


def _plus(c1, c2):
    """The sum of two polynomials {degree: coefficient}, zeros dropped."""
    return {e: x for e in c1.keys() | c2.keys() if (x := c1.get(e, 0) + c2.get(e, 0))}


def _poly_mul(c1, c2):
    """The product of two polynomials {degree: coefficient}, zeros
    dropped."""
    out = {}
    for d1, x1 in c1.items():
        for d2, x2 in c2.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + x1 * x2
    return {d: x for d, x in out.items() if x}


def _combined(den, parts):
    """The formal sum over den of the (graded, c) pairs `parts`: each
    {Word: {degree: int}} times the integer polynomial c, added up in new
    dicts."""
    out = {}
    for graded, c in parts:
        c = c.items()
        for w, a in graded.items():
            if (acc := out.get(w)) is None:
                acc = out[w] = {}
            for d, x in a.items():
                for e, y in c:
                    acc[d + e] = acc.get(d + e, 0) + x * y
    return _reduced(den, out)


def _reduced(den, graded):
    """The formal sum over den of {word: {degree: int}}: zeros, and words
    left without a coefficient, dropped, keys made Words, and den and the
    integers divided by their greatest common divisor."""
    out = {}
    for u, c in graded.items():
        if 0 in c.values():
            c = {d: x for d, x in c.items() if x}
        if c:
            out[u if type(u) is Word else _word(u)] = c
    if den > 1 and (g := gcd(den, *chain.from_iterable(map(dict.values, out.values())))) > 1:
        out = {w: {d: x // g for d, x in c.items()} for w, c in out.items()}
        den //= g
    return _normal_sum(out, den)


def _t_free_sum(den, vec):
    """The t-free formal sum of {word: int} over den, zeros dropped and
    reduced: one {0: x} dict per distinct value x, shared by the words
    that take it."""
    g = gcd(den, *vec.values())
    shared, out = {}, {}
    for w, x in vec.items():
        if x:
            x //= g
            if (c := shared.get(x)) is None:
                c = shared[x] = {0: x}
            out[w if type(w) is Word else _word(w)] = c
    return _normal_sum(out, den // g)


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
        (u, c * d) for w, c in as_sum(e).items() for u, d in f(w).items()
    )


def _at_alpha(alpha, e, n=1):
    """The coefficients of e at t = alpha = p/q, as integers over one
    denominator: returns (den, at), den being e's denominator times q^top
    and top the largest degree in e plus n - 1, where at(c, m) lists the
    integers q^top c(alpha) alpha^s, s < m <= n, for a stored dict c of
    e.  One power table, p^i q^(top-i) for i <= top, serves every dict:
    a term c_j t^j scales its entries j, ..., j + m - 1, so a one-term
    dict costs one multiplication per value."""
    p, q = alpha.numerator, alpha.denominator
    top = max(map(max, e._graded.values()), default=0) + n - 1
    table = [p**i * q ** (top - i) for i in range(top + 1)]

    def at(c, m=1):
        if len(c) == 1:
            [(j, x)] = c.items()
            return [x * y for y in table[j : j + m]]
        return [sum([x * table[j + s] for j, x in c.items()]) for s in range(m)]

    return e._den * q**top, at


def _at_each(alpha, e):
    """(den, {id of a stored dict of e: its integer at t = alpha}) over
    the denominator den of `_at_alpha`.  Each distinct dict is evaluated
    once, keyed by id: stored dicts are shared, never changed, and kept
    alive by e."""
    den, at = _at_alpha(alpha, e)
    return den, {i: at(c)[0] for i, c in {id(c): c for c in e._graded.values()}.items()}


def substitute_t(e, alpha):
    """Evaluate every coefficient of e at t = alpha (exact rational)."""
    e = as_sum(e)
    den, values = _at_each(_as_exact(alpha), e)
    return _t_free_sum(den, {w: values[id(c)] for w, c in e._graded.items()})


def circle(a, b):
    """Circle product of two letters: subscripts add."""
    return _check_letter(a) + _check_letter(b)


def circle_act(a, e):
    """Act by the letter a on a formal sum: a acts as zero on the unit
    word and merges into the first letter otherwise."""
    _check_letter(a)
    e = as_sum(e)
    # distinct words stay distinct, so no coefficients merge
    return _reduced(e._den, {(a + w[0],) + w[1:]: c for w, c in e._graded.items() if w})


#: The coefficient 1 of a word, shared by every memo entry that needs it.
_ONE = {0: 1}


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

    A product is {Word: {degree: int}}, its integer coefficients over
    denominator 1, and shares the dicts of the entries it is built from
    wherever a word's coefficient is one of theirs unchanged: no memo
    entry is ever changed.
    """

    @cache
    def word_product(w1: Word, w2: Word) -> dict:
        if not (w1 and w2):
            return {w1 or w2: _ONE}
        a, u = w1[0], _word(w1[1:])
        b, v = w2[0], _word(w2[1:])
        # the parts' words begin with a, b, a+b and a+b plus a letter, so
        # words of two parts meet only in the two prepends, when a == b
        out = {_word((a,) + w): c for w, c in word_product(u, w2).items()}
        for w, c in word_product(w1, v).items():
            w = _word((b,) + w)
            if w not in out or (c := _plus(out.pop(w), c)):
                out[w] = c
        for w, c in word_product(u, v).items():
            out[_word((a + b,) + w)] = c if merge is _ONE else _poly_mul(c, merge)
            if circ and w:
                out[_word((a + b + w[0],) + w[1:])] = _poly_mul(c, circ)
        return out

    return word_product


_harmonic_ww = _quasi_shuffle(_ONE)
_star_ww = _quasi_shuffle({0: -1})
_t_harmonic_ww = _quasi_shuffle({0: 1, 1: -2}, {1: -1, 2: 1})


def _bilinear(word_product, e1, e2):
    """The product of two sums in integers: the memoised word products
    times the products of the coefficients, added up over the product of
    the two denominators."""
    e1, e2 = as_sum(e1), as_sum(e2)
    return _combined(e1._den * e2._den, (
        (word_product(w1, w2), _poly_mul(c1, c2))
        for w1, c1 in e1._graded.items() for w2, c2 in e2._graded.items()
    ))


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
