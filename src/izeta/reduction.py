"""Exact linear algebra over the word basis: span-membership certificates
for the reductions that the interpolation identities predict.

Everything is done over Fractions with Gaussian elimination; a failed
membership is a value (certificate with no coefficients), not an error,
so callers can report exactly which component fell outside the span.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import FormalSum, Word, _as_exact, as_sum
from .identities import (
    csf_generator,
    cyclic_C,
    cyclic_Sigma,
    sum_poly,
    sum_words,
    words_of_weight,
)
from .interpolate import s_alpha, s_t, taylor_shift


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
        acc = {}  # (letters, power of t) -> coefficient
        for w, p in self.target.terms.items():
            for e, x in p.coeffs.items():
                acc[w.letters, e] = x
        for c, g in zip(self.coefficients, self.generators):
            if c:
                c = _as_exact(c)
                for w, p in as_sum(g).terms.items():
                    for e, x in p.coeffs.items():
                        key = w.letters, e
                        acc[key] = acc.get(key, 0) - c * x
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
            for w, c in rvec.items():
                nc = vec.get(w, Fraction(0)) - factor * c
                if nc:
                    vec[w] = nc
                else:
                    vec.pop(w, None)
            for j, c in rcombo.items():
                nc = combo.get(j, Fraction(0)) - factor * c
                if nc:
                    combo[j] = nc
                else:
                    combo.pop(j, None)
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


def verify_sf_reduction(k, alpha=0):
    """Certify, coefficient by coefficient in (t - alpha), that the
    weight-k sum-family identity reduces to the depth-graded generators
    evaluated at alpha.  Returns one certificate per (depth, power)."""
    if k < 2:
        raise ValueError("weight must be at least 2")
    zk = FormalSum.from_word(Word((k,)))
    gens = [
        s_alpha(sum_words(k, m), alpha) - zk * sum_poly(k, m).evaluate(alpha)
        for m in range(1, k)
    ]
    solver = SpanSolver(gens)
    certs = []
    for n in range(1, k):
        e = s_t(sum_words(k, n)) - zk * sum_poly(k, n)
        parts = taylor_shift(e, alpha)
        parts += [FormalSum.zero()] * (n - len(parts))  # degree in t is < n
        for power, part in enumerate(parts):
            coeffs = solver.coefficients_for(part)
            certs.append(
                RelationCertificate(
                    part,
                    gens,
                    coeffs,
                    label=f"sum-formula k={k} n={n} power={power}",
                )
            )
    return certs


def verify_csf_reduction(k, alpha=0):
    """Certify that each cyclic generator of weight k reduces, power by
    power in (t - alpha), to the span of the generators' values at alpha."""
    if k < 2:
        raise ValueError("weight must be at least 2")
    words = [w for w in words_of_weight(k) if w.depth < k]
    zk1 = FormalSum.from_word(Word((k + 1,)))
    alpha_f = Fraction(alpha)
    gens = []
    for w in words:
        n = w.depth
        gens.append(
            s_alpha(cyclic_Sigma(w), alpha)
            + s_alpha(cyclic_C(w), alpha) * (alpha_f - 1)
            - zk1 * (k * alpha_f**n)
        )
    solver = SpanSolver(gens)
    certs = []
    for w in words:
        f = csf_generator(w)
        parts = taylor_shift(f, alpha)
        parts += [FormalSum.zero()] * (w.depth + 1 - len(parts))  # degree <= depth
        for power, part in enumerate(parts):
            coeffs = solver.coefficients_for(part)
            certs.append(
                RelationCertificate(
                    part,
                    gens,
                    coeffs,
                    label=f"cyclic k={k} word={w} power={power}",
                )
            )
    return certs
