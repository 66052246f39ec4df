"""Exact linear algebra over the word basis: span-membership certificates
for the reductions that the interpolation identities predict.

Everything is done over Fractions with Gaussian elimination; a failed
membership is a value (certificate with no coefficients), not an error,
so callers can report exactly which component fell outside the span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .algebra import FormalSum, _as_exact, as_sum
from .identities import cyclic_sides, sum_formula_sides, words_of_weight
from .interpolate import taylor_shift


def _vectorize(e):
    """t-free formal sum -> {Word: Fraction}."""
    e = as_sum(e)
    vec = {}
    for w, p in e.terms.items():
        if not p.is_constant():
            raise ValueError(f"reduction inputs must be t-free, got {p}")
        c = Fraction(p.constant())
        if c:
            vec[w] = c
    return vec


@dataclass
class RelationCertificate:
    """Outcome of one span-membership question.

    `coefficients` lists one Fraction per generator when the target lies
    in the span; it is None on failure.  `verify` re-substitutes exactly.
    """

    target: FormalSum
    generators: list
    coefficients: list | None
    label: str = ""

    @property
    def success(self):
        return self.coefficients is not None

    def verify(self):
        """Exact re-substitution: target - sum(c_i * g_i) == 0, summed
        coefficient by coefficient of each (word, power of t)."""
        if self.coefficients is None:
            return False
        acc = {}  # (word, power of t) -> coefficient
        for w, p in self.target.terms.items():
            for e, x in p.coeffs.items():
                acc[w, e] = x
        for c, g in zip(self.coefficients, self.generators):
            if c:
                c = _as_exact(c)
                for w, p in as_sum(g).terms.items():
                    for e, x in p.coeffs.items():
                        acc[w, e] = acc.get((w, e), 0) - c * x
        return not any(acc.values())

    def to_record(self):
        """Machine-readable dict; rationals rendered as p/q strings, with
        an explicit FAILURE marker when the target fell outside the span."""
        return self._record([str(g) for g in self.generators])

    def _record(self, generators):
        """`to_record` with the generator list already rendered."""
        return {
            "label": self.label,
            "target": str(self.target),
            "generators": generators,
            "coefficients": "FAILURE"
            if self.coefficients is None
            else [str(Fraction(c)) for c in self.coefficients],
            "success": self.success,
        }

    def __str__(self):
        if not self.success:
            return f"FAILURE {self.label}: target outside span"
        used = [
            f"{Fraction(c)}*g{i}" for i, c in enumerate(self.coefficients) if c
        ]
        body = " + ".join(used) if used else "0"
        return f"{self.label}: target = {body}"


def _subtract(acc, factor, row):
    """acc -= factor * row on sparse dicts, dropping what cancels."""
    for key, c in row.items():
        nc = acc.get(key, 0) - factor * c
        if nc:
            acc[key] = nc
        else:
            acc.pop(key, None)


class SpanSolver:
    """Row echelon form of a fixed generator list, reused across targets.

    Pivot choice is deterministic: each row pivots on its smallest word in
    canonical (lexicographic) order.
    """

    def __init__(self, generators):
        self.generators = list(generators)
        self._pivots = {}  # Word -> (vector, combo over generator indices)
        for i, g in enumerate(self.generators):
            vec = _vectorize(g)
            vec, combo = self._reduce(vec, {i: Fraction(1)})
            if vec:
                piv = min(vec)
                inv = 1 / vec[piv]
                vec = {w: c * inv for w, c in vec.items()}
                combo = {j: c * inv for j, c in combo.items()}
                self._pivots[piv] = (vec, combo)

    def _reduce(self, vec, combo):
        """Eliminate vec against the stored pivot rows (smallest word
        first); returns the residual and the updated combination."""
        while vec:
            piv = min(vec)
            row = self._pivots.get(piv)
            if row is None:
                return vec, combo
            rvec, rcombo = row
            factor = vec[piv]
            _subtract(vec, factor, rvec)
            _subtract(combo, factor, rcombo)
        return vec, combo

    def coefficients_for(self, target):
        """Coefficients over the generators, or None if outside the span."""
        vec, combo = self._reduce(_vectorize(target), {})
        if vec:
            return None
        coeffs = [Fraction(0)] * len(self.generators)
        for i, c in combo.items():
            coeffs[i] = -c
        return coeffs


def certificate_records(certs):
    """`to_record()` of each certificate, rendering a generator list once
    however many certificates share it (as all certificates from one
    `verify_*_reduction` call do)."""
    rendered = {}
    records = []
    for cert in certs:
        generators = rendered.get(id(cert.generators))
        if generators is None:
            generators = [str(g) for g in cert.generators]
            rendered[id(cert.generators)] = generators
        records.append(cert._record(generators))
    return records


def span_membership(target, generators, label=""):
    """Single-shot exact span membership with certificate."""
    solver = SpanSolver(generators)
    coeffs = solver.coefficients_for(target)
    return RelationCertificate(as_sum(target), list(generators), coeffs, label)


def _certify(suite, relations, alpha):
    """Certify, power by power in (t - alpha), that each Taylor coefficient
    of each relation lies in the span of the relations evaluated at t = alpha.

    `relations` yields (label, (lhs, rhs), number of powers) triples; the
    Taylor coefficients of each lhs - rhs are padded with zeros to its
    number of powers.  The generators are the coefficients of
    (t - alpha)^0."""
    shifted = [
        (f"{suite} {label}", taylor_shift(sub(*sides), alpha), powers)
        for label, sides, powers in relations
    ]
    gens = [parts[0] for _, parts, _ in shifted]
    solver = SpanSolver(gens)
    certs = []
    for label, parts, powers in shifted:
        parts += [FormalSum.zero()] * (powers - len(parts))
        for power, part in enumerate(parts):
            coeffs = solver.coefficients_for(part)
            certs.append(
                RelationCertificate(part, gens, coeffs, label=f"{label} power={power}")
            )
    return certs


def _check_weight(k):
    if k < 2:
        raise ValueError("weight must be at least 2")


def sum_formula_relations(k):
    """The weight-k sum formula, one relation per depth n < k, as
    (label, (lhs, rhs), number of powers of t - alpha): the degree in t is
    below n.  The weight is checked at once; each relation's sides are
    built when it is reached."""
    _check_weight(k)
    return ((f"k={k} n={n}", sum_formula_sides(k, n), n) for n in range(1, k))


def cyclic_relations(k):
    """The weight-k cyclic sum formula, one relation per word w of weight
    k and depth below k, as in `sum_formula_relations`: the degree in t is
    at most the depth of w."""
    _check_weight(k)
    return (
        (f"k={k} word={w}", cyclic_sides(w), w.depth + 1)
        for w in words_of_weight(k)
        if w.depth < k
    )


def verify_sf_reduction(k, alpha=0):
    """Certify, coefficient by coefficient in (t - alpha), that the
    weight-k sum-family identity reduces to the depth-graded generators
    evaluated at alpha.  Returns one certificate per (depth, power)."""
    return _certify("sum-formula", sum_formula_relations(k), alpha)


def verify_csf_reduction(k, alpha=0):
    """Certify that each cyclic generator of weight k reduces, power by
    power in (t - alpha), to the span of the generators' values at alpha."""
    return _certify("cyclic", cyclic_relations(k), alpha)
