"""Exact linear algebra over the word basis: span-membership certificates
for the reductions that the interpolation identities predict.

Vectors are integers over one denominator: a t-free formal sum is read
as (den, {Word: int}), the form it stores (`_integer_form`).
`SpanSolver` eliminates fraction-free (Bareiss, Math. Comp. 22 (1968))
on such vectors: rows stay integer, and where a pivot does not divide
the entry it clears, the vector being reduced is first scaled by the
least integer that makes it divide.  Each coefficient becomes a Fraction
once, at the end, and only the nonzero ones are returned, as
{generator index: Fraction}; `coefficients_for` spreads them into the
public list, one entry per generator.  `verify_certificates` re-checks
each certificate in the same integers, word by word, from its target,
generators and nonzero coefficients.  A failed membership is a value
(certificate with no coefficients), not an error, so callers can report
exactly which component fell outside the span.

`certify_relations` stays in integers from the identities to the
solver: it takes each identity's sides only in the form that
`identities` states them in, each side split by degree, one {word: int}
per degree of t.  `interpolate._taylor_parts` subtracts them degree by
degree, in place in the left side's dicts at alpha = 0, and at
alpha = p/q != 0 shifts a scaled copy by Horner's rule in integers, the
loop `taylor_shift` runs too.  Part m is then an integer vector over a
power of q, handed to the solver as it is.  Each part is
kept as those integers with the solver's nonzero coefficients, and the
verifier reads them as they are: of the formal sums, only the
generators (part 0 of each key) are built to certify and verify.
Every certificate reads its target and coefficients off one part
(`_Part`), whether solved or given to the constructor: a solved part's
public target (a formal sum) and coefficient list are built on first
read, and a list, given or built, is read as it is at each verify and
record.  The JSON records read a solved part as the verifier does: the
target is printed from its integers and, while no list is built, the
coefficients from the nonzero ones, through the text function that
`str(FormalSum)` prints with.  Assigning either field gives that one
certificate a part of its own.

Each relation carries a key for the identity it states: the depth n in
the sum formula, and in the cyclic suite the least rotation of the word,
since the cyclic sum formula sums over all rotations.  The relation
builders return (labelled, sides): `labelled` lists (label, key) for
each relation, and `sides` yields (key, (lhs, rhs)) once per key, in
the order of each key's first label, split by degree.  The sides of
every key come from one run of S^t over all of them
(`identities._cyclic_batch`, `_sum_formula_batch`); each key's pair is
split off that run as it is reached and let go before the next is
built.  Each key is shifted and solved once: the certificates of its
relations keep their own labels but share one part per power, and so
one target and one coefficient-list object each, and every certificate
of one call shares one generator list.  The verifier and the JSON
records do each shared object's work once.
"""

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .algebra import Word, _as_exact, _poly_text, _subtract, _sum_text, _t_free_sum, as_sum
from .identities import _cyclic_batch, _rotations, _sum_formula_batch, words_of_weight
from .interpolate import _taylor_parts


def _integer_form(e):
    """A t-free formal sum over one denominator: (den, {Word: int}), as
    the sum stores it."""
    e = as_sum(e)
    if not e.is_t_free():
        raise ValueError("reduction inputs must be t-free")
    return e._den, {w: c[0] for w, c in e._graded.items()}


_ZERO = Fraction(0)


def _dense(nonzero, size):
    """The coefficient list, one Fraction per generator, of the nonzero
    coefficients {generator index: Fraction}."""
    coeffs = [_ZERO] * size
    for i, c in nonzero.items():
        coeffs[i] = c
    return coeffs


def _nonzero(coeffs):
    """The nonzero entries {index: c} of a coefficient list, every entry,
    zero or not, checked exact: an inexact one raises TypeError."""
    # `is` skips the solver's zeros without a call
    return {i: c for i, c in enumerate(coeffs) if c is not _ZERO and _as_exact(c)}


class _Part:
    """A certificate's target and coefficients, each in one of two forms.
    The target is the integers (den, {word: int}) it was solved from,
    with no zero and each word a Word or a plain tuple, as
    `_taylor_parts` gives them; or an object: a formal sum built from
    them, a generator, or the target a certificate was given.  The
    coefficients are the solver's nonzero ones {generator index:
    Fraction} with the number of generators, or None outside the span;
    or the list (or None) a certificate was given.  A solved part is
    shared by the certificates of one relation key and power; its target
    sum and coefficient list are built on first read and kept, and the
    built sum then stores the integers, reduced, in their place.  A
    list, given or built, is never cached as nonzeros: it is read anew
    at each verify and each record, so an edit made in place shows in
    both."""

    __slots__ = ("den", "vec", "nonzero", "size", "_target", "_coefficients")

    def __init__(self, target, coefficients, nonzero=None, size=0, den=None, vec=None):
        self._target, self._coefficients = target, coefficients
        self.nonzero, self.size, self.den, self.vec = nonzero, size, den, vec

    def target(self):
        if self.vec is not None:
            self._target = _t_free_sum(self.den, self.vec)
            self.den = self.vec = None
        return self._target

    def coefficients(self):
        if self._coefficients is None and self.nonzero is not None:
            self._coefficients = _dense(self.nonzero, self.size)
        return self._coefficients

    def terms(self, size, forms):
        """The target's integers (den, vec) and the nonzero coefficients,
        as checked against `size` generators, or None when there are no
        coefficients or not `size` of them.  A list, given or built, is
        read as it is now, so what a record prints is what is checked, in
        this order: its length, then the target (one that carries t raises
        ValueError), then each entry (an inexact one, zero or not, raises
        TypeError).  Target objects are converted once in `forms`."""
        coeffs = self._coefficients
        # a list given or built, or no list and no solved nonzeros
        listed = coeffs is not None or self.nonzero is None
        if (coeffs is None or len(coeffs) != size) if listed else self.size != size:
            return None
        den, vec = (self.den, self.vec) if self.vec is not None else _form(self._target, forms)
        return den, vec, _nonzero(coeffs) if listed else self.nonzero


class RelationCertificate:
    """Outcome of one span-membership question.

    `coefficients` lists one Fraction per generator when the target lies
    in the span; it is None on failure.  `verify` re-substitutes exactly.
    A certificate reads its target and coefficients off one part: its
    own, holding what it was built with, or, from `certify_relations`,
    the part it shares with the other certificates of its relation key
    and power.  Assigning `target` or `coefficients` gives that one
    certificate a new part of its own, with the value assigned and the
    other field as its old part held it.
    """

    def __init__(self, target, generators, coefficients, label=""):
        self._part = _Part(target, coefficients)
        self.generators, self.label = generators, label

    @classmethod
    def _solved(cls, part, generators, label):
        cert = cls.__new__(cls)
        cert._part, cert.generators, cert.label = part, generators, label
        return cert

    @property
    def target(self):
        return self._part.target()

    @target.setter
    def target(self, target):
        part = self._part
        self._part = _Part(target, part._coefficients, part.nonzero, part.size)

    @property
    def coefficients(self):
        return self._part.coefficients()

    @coefficients.setter
    def coefficients(self, coefficients):
        part = self._part
        self._part = _Part(part._target, coefficients, den=part.den, vec=part.vec)

    def _fields(self):
        return self.target, self.generators, self.coefficients, self.label

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        names = ("target", "generators", "coefficients", "label")
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, self._fields()))
        return f"{type(self).__name__}({fields})"

    @property
    def success(self):
        # a solved part answers without building its list
        return self._part.nonzero is not None or self._part._coefficients is not None

    def verify(self):
        """Exact re-substitution in integers, as in `verify_certificates`."""
        return verify_certificates([self])[0]

    def to_record(self):
        """Machine-readable dict; rationals rendered as p/q strings, with
        an explicit FAILURE marker when the target fell outside the span."""
        return certificate_records([self])[0]

    def __str__(self):
        if not self.success:
            return f"FAILURE {self.label}: target outside span"
        used = [f"{c}*g{i}" for i, c in _nonzero(self.coefficients).items()]
        body = " + ".join(used) if used else "0"
        return f"{self.label}: target = {body}"


class SpanSolver:
    """Row echelon form of a fixed generator list, reused across targets.

    Pivot choice is deterministic: each row pivots on its smallest word in
    canonical (lexicographic) order.  Rows stay integer and unnormalised:
    a row is an integer vector `vec`, kept with the integer `combo` for
    which vec = sum of combo[i] * generator i, and its pivot entry need
    not be 1.  `forms`, if given, lists the integer form (den, {Word:
    int}) of each generator, in order, for a caller that has them; they
    are read, not changed.
    """

    def __init__(self, generators, forms=None):
        self.generators = list(generators)
        self._pivots = {}  # Word -> (vec, combo)
        reduced = set()  # ids of objects self.generators keeps alive
        for i, g in enumerate(self.generators):
            if id(g) in reduced:
                continue  # a repeat reduces to zero against the rows
            reduced.add(id(g))
            den, vec = _integer_form(g) if forms is None else forms[i]
            vec, combo = self._reduce(dict(vec), {i: den})
            if vec:
                self._pivots[min(vec)] = (vec, combo)

    def _reduce(self, vec, combo):
        """Eliminate vec against the stored pivot rows (smallest word
        first), in integers; returns the residual and the updated
        combination.  Where the pivot p does not divide the entry a,
        vec and combo are first scaled by |p| / gcd(a, p)."""
        while vec:
            piv = min(vec)
            row = self._pivots.get(piv)
            if row is None:
                return vec, combo
            rvec, rcombo = row
            a, p = vec[piv], rvec[piv]
            if a % p:
                s = abs(p) // gcd(a, p)
                for part in (vec, combo):
                    part.update({key: s * x for key, x in part.items()})
                a *= s
            _subtract(vec, a // p, rvec)
            _subtract(combo, a // p, rcombo)
        return vec, combo

    def coefficients_for(self, target):
        """Coefficients over the generators, or None if outside the span."""
        nonzero = self._coefficients(*_integer_form(target))
        return None if nonzero is None else _dense(nonzero, len(self.generators))

    def _coefficients(self, den, vec):
        """The nonzero coefficients {generator index: Fraction} of the
        target vec / den, given in integers, or None if it lies outside
        the span; the dict vec is used up."""
        # the key None stands for the target: vec = den * target to start
        vec, combo = self._reduce(vec, {None: den})
        if vec:
            return None
        scale = combo.pop(None)
        return {i: Fraction(-c, scale) for i, c in combo.items()}


def certificate_records(certs):
    """The machine-readable dict of each certificate (label, target,
    generators, coefficients as p/q strings or "FAILURE", success),
    rendering each part, each generator list and each sum once however
    many certificates share it (as all certificates from one
    `certify_relations` call share their generators, and those of one
    relation key and power their part), into one text or list object.
    A solved part is read as `_Part.terms` reads it: its target is
    printed from its integers, as `str(_t_free_sum(den, vec))` would
    print it, and, while no list has been built, its coefficients from
    the solver's nonzero ones, so neither a sum nor a list is built.  The
    text of each word and value is made once per call.  An inexact
    coefficient raises TypeError, as in `verify_certificates`."""
    texts = {}  # id of a part, a generator list or a sum -> its text
    # each key printed as a Word is, whether a Word or a plain tuple
    words, values = cache(Word.__str__), cache(lambda x, den: _poly_text({0: x}, den))

    def rendered(part):
        coeffs = part._coefficients
        if coeffs is not None:
            # `is` renders the solver's zeros without a call
            coeffs = ["0" if c is _ZERO else str(_as_exact(c)) for c in coeffs]
        elif part.nonzero is not None:  # the solver's, with no list built
            coeffs = ["0"] * part.size
            for i, c in part.nonzero.items():
                coeffs[i] = str(c)
        if part.vec is None:
            target = _once(str, part._target, texts)
        else:
            target = _sum_text((values(x, part.den), words(w)) for w, x in sorted(part.vec.items()))
        return target, "FAILURE" if coeffs is None else coeffs

    records = []
    # iterating a list keeps every certificate, and so every part,
    # generator list and sum, alive, so no id is reused
    for cert in list(certs):
        part, gens = cert._part, cert.generators
        target, coefficients = _once(rendered, part, texts)
        records.append({
            "label": cert.label,
            "target": target,
            "generators": _once(lambda gens: [_once(str, g, texts) for g in gens], gens, texts),
            "coefficients": coefficients,
            "success": cert.success,
        })
    return records


def verify_certificates(certs):
    """Whether each certificate holds, by exact re-substitution in
    integers: target - sum c_i g_i == 0 times L, the lcm of the
    denominators of the target and of each c_i g_i, word by word.

    Each certificate is read off its part (`_Part.terms`): a solved part
    gives the target's integers and the nonzero coefficients as solved,
    with no formal sum or coefficient list built; a list, given or built
    since, is read as it is now.  A failed certificate, or a coefficient
    list of the wrong length, fails; an inexact coefficient, zero or
    not, raises TypeError, and a target that carries t raises
    ValueError.  A used generator that carries t raises ValueError too.
    Each generator is converted to integers once however many
    certificates share it (as all certificates from one
    `certify_relations` call share their generator list), and each
    distinct (part, generator list) pair is verified once."""
    forms = {}  # id of a generator or target -> integer form
    verdicts = {}  # (id of a part, id of a generator list) -> verdict
    oks = []
    # iterating a list keeps every certificate, and so every object it is
    # read from, alive, so no id is reused
    for cert in list(certs):
        part, gens = cert._part, cert.generators
        key = (id(part), id(gens))
        if key not in verdicts:
            verdicts[key] = _holds(part, gens, forms)
        oks.append(verdicts[key])
    return oks


def _once(f, e, done):
    """f(e), made once per object e in `done` {id of e: f(e)}."""
    value = done.get(id(e))
    if value is None:
        value = done[id(e)] = f(e)
    return value


def _form(e, forms):
    """`_integer_form` of e, converted once per object in `forms`."""
    return _once(_integer_form, e, forms)


def _holds(part, gens, forms):
    """Whether a certificate's part holds over its generators, as in
    `verify_certificates`, with the integer forms of generators and
    targets already converted in `forms`."""
    if (terms := part.terms(len(gens), forms)) is None:
        return False
    den, vec, nonzero = terms
    used = [(-1, den, vec)]  # the target, with coefficient -1
    for i, c in nonzero.items():
        used.append((c, *_form(gens[i], forms)))
    common = lcm(*(c.denominator * d for c, d, _ in used))
    acc = {}
    for c, d, vec in used:
        _subtract(acc, c.numerator * (common // (c.denominator * d)), vec)
    return not acc


def span_membership(target, generators, label=""):
    """Single-shot exact span membership with certificate; `generators`
    may be any iterable, read once."""
    solver = SpanSolver(generators)
    coeffs = solver.coefficients_for(target)
    return RelationCertificate(as_sum(target), solver.generators, coeffs, label)


def certify_relations(suite, relations, alpha):
    """Certify, power by power in (t - alpha), that each Taylor coefficient
    of each relation lies in the span of the relations evaluated at t = alpha.

    `relations` is a pair (labelled, sides), as `sum_formula_relations`
    and `cyclic_relations` return it: `labelled` lists (label, key) for
    each relation, where relations with one key state one identity, and
    `sides` yields (key, (lhs, rhs)) once per key, lhs and rhs split by
    degree, one {word: int} per degree of t, lhs in one dict per power.
    The sides are used up: at alpha = 0 the Taylor coefficients are lhs's
    own dicts.  `sides` is read to the end before the solver is built, so
    whatever a caller does as it yields them, such as the CLI's numeric
    checks, comes before any solve.  The Taylor coefficients of
    lhs - rhs, one per power, are taken in integers and solved once per
    key, and only they are kept, with the nonzero coefficients, never the
    sides.  There is one certificate per relation and power, with its own
    label; those of one key and power share one part, so their target
    and coefficient-list objects, each built on first read, are shared.
    The generators, one list that every certificate shares, are each
    relation's coefficient of (t - alpha)^0, in order."""
    alpha = _as_exact(alpha)
    labelled, sides = relations
    parts_of = {}  # key -> integer Taylor coefficients
    for key, pair in sides:
        parts_of[key] = _taylor_parts(pair, alpha)
        del pair  # what the parts do not keep goes before the next is built
    firsts = {key: _t_free_sum(*parts[0]) for key, parts in parts_of.items()}
    gens = [firsts[key] for _, key in labelled]
    solver = SpanSolver(gens, [parts_of[key][0] for _, key in labelled])
    # the solver uses up a copy of each part's integers; the part keeps
    # them, but its coefficient of (t - alpha)^0 is the key's generator
    solved = {}
    for key, parts in parts_of.items():
        nonzeros = [solver._coefficients(den, dict(vec)) for den, vec in parts]
        solved[key] = [_Part(firsts[key], None, nonzeros[0], len(gens))] + [
            _Part(None, None, nonzero, len(gens), den, vec)
            for nonzero, (den, vec) in zip(nonzeros[1:], parts[1:])
        ]
    return [
        RelationCertificate._solved(part, gens, f"{suite} {label} power={power}")
        for label, key in labelled
        for power, part in enumerate(solved[key])
    ]


def _check_weight(k):
    if k < 2:
        raise ValueError("weight must be at least 2")


def sum_formula_relations(k):
    """The weight-k sum formula, one relation per depth n < k, as
    (labelled, sides) for `certify_relations`: the key of each label is
    n, so no two relations share one, and the sides of depth n are split
    by degree, n dicts {word: int} each, one per degree in t.  The weight
    is checked at once; the sides of every depth come from one run of
    S^t, each split off as it is reached."""
    _check_weight(k)
    batch = _sum_formula_batch(k, range(1, k))
    return [(f"k={k} n={n}", n) for n in range(1, k)], ((n, next(batch)) for n in range(1, k))


def cyclic_relations(k):
    """The weight-k cyclic sum formula, one relation per word w of weight
    k and depth below k, as (labelled, sides) in `sum_formula_relations`.
    Both sides sum over the rotations of w, so the key is w's least
    rotation, and the sides of a key are those of that word: one dict per
    degree in t up to the depth of w, split off one run of S^t over every
    key as each is reached.  The weight is checked at once."""
    _check_weight(k)
    labelled = [(f"k={k} word={w}", min(_rotations(w))) for w in words_of_weight(k) if w.depth < k]
    keys = dict.fromkeys(key for _, key in labelled)
    batch = _cyclic_batch([Word(key) for key in keys])
    return labelled, ((key, next(batch)) for key in keys)


def verify_sf_reduction(k, alpha=0):
    """Certify, coefficient by coefficient in (t - alpha), that the
    weight-k sum-family identity reduces to the depth-graded generators
    evaluated at alpha.  Returns one certificate per (depth, power)."""
    return certify_relations("sum-formula", sum_formula_relations(k), alpha)


def verify_csf_reduction(k, alpha=0):
    """Certify that each cyclic generator of weight k reduces, power by
    power in (t - alpha), to the span of the generators' values at alpha."""
    return certify_relations("cyclic", cyclic_relations(k), alpha)
