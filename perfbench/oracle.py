"""Inputs and reference results for the benchmark, without importing izeta.

The seed picks the rational samples and the op order; everything else is
fixed.  Words are plain tuples of positive ints and polynomials in t are
{exponent: coefficient} dicts, so a defect in izeta's own algebra cannot
hide inside the oracle that checks it.  Numeric references are closed
forms evaluated with mpmath at 30 digits.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

# `izeta verify cyclic --k 8` text output, recorded at the commit that
# introduced this benchmark.  The label lines carry no timing or version.
CYCLIC_K8_SHA256 = "cf7e62c1e22411dc9f12fe92871487191d5fae58b7df2c5fbd7bed830a89f76a"
CYCLIC_K8_CERTS = 695
SUM_FORMULA_K11_CERTS = 55

DPS = 30
NUMERIC_M = 300_000


def compositions(total):
    """All compositions of `total` into positive parts, as tuples."""
    out = []
    for cuts in range(total):
        for cut_set in combinations(range(1, total), cuts):
            marks = (0,) + cut_set + (total,)
            out.append(tuple(b - a for a, b in zip(marks, marks[1:])))
    return out


def words_up_to(max_weight):
    """All nonempty words of weight <= max_weight, by weight."""
    return [c for w in range(1, max_weight + 1) for c in compositions(w)]


def contractions(word):
    """(contracted word, number of merges) for every way of merging
    adjacent letters of a nonempty word into blocks."""
    n = len(word)
    for cut_set in (c for r in range(n) for c in combinations(range(1, n), r)):
        marks = (0,) + cut_set + (n,)
        yield tuple(sum(word[a:b]) for a, b in zip(marks, marks[1:])), n - len(marks) + 1


def s_t(word):
    """The interpolation operator on one word: {word: {t-power: int}}."""
    out = {}
    for u, sigma in contractions(word):
        poly = out.setdefault(u, {})
        poly[sigma] = poly.get(sigma, 0) + 1
    return out


def s_at(word, c):
    """The operator at parameter value c: {word: Fraction}, zeros dropped."""
    out = {}
    for u, sigma in contractions(word):
        out[u] = out.get(u, 0) + Fraction(c) ** sigma
    return {u: v for u, v in out.items() if v}


@lru_cache(maxsize=None)
def stuffle(u, v):
    """Harmonic (stuffle) product of two words as ((word, mult), ...)."""
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    acc = {}
    for head, rest in ((u[0], stuffle(u[1:], v)), (v[0], stuffle(u, v[1:])),
                       (u[0] + v[0], stuffle(u[1:], v[1:]))):
        for w, m in rest:
            acc[(head,) + w] = acc.get((head,) + w, 0) + m
    return tuple(acc.items())


def stuffle_sums(a, b):
    """Stuffle product of two {word: {t-power: coeff}} sums, zeros dropped."""
    out = {}
    for wa, pa in a.items():
        for wb, pb in b.items():
            for w, m in stuffle(wa, wb):
                poly = out.setdefault(w, {})
                for ea, ca in pa.items():
                    for eb, cb in pb.items():
                        poly[ea + eb] = poly.get(ea + eb, 0) + m * ca * cb
    out = {w: {e: c for e, c in p.items() if c} for w, p in out.items()}
    return {w: p for w, p in out.items() if p}


def admissible_up_to_depth(k, n):
    """Admissible words (first letter >= 2) of weight k and depth <= n."""
    return [c for c in compositions(k) if c[0] >= 2 and len(c) <= n]


def sum_poly_at(k, n, t):
    """Yamamoto's sum-formula polynomial sum_{j<n} C(k-1,j) t^j (1-t)^(n-1-j)
    at an exact rational t."""
    t = Fraction(t)
    return sum(comb(k - 1, j) * t**j * (1 - t) ** (n - 1 - j) for j in range(n))


def _mp():
    import mpmath

    mpmath.mp.dps = DPS
    return mpmath


def sum_formula_value(k, n, t):
    """zeta^t summed over all admissible words of weight k and depth n:
    sum_poly(k, n)(t) * zeta(k)."""
    mp = _mp()
    q = sum_poly_at(k, n, t)
    return mp.mpf(q.numerator) / q.denominator * mp.zeta(k)


def closed_form(kind, index):
    """Classical evaluations: zeta(2,1) = zeta(3), zeta*(2,1) = 2 zeta(3),
    zeta*(2,1,1) = 3 zeta(4), zeta*(3,1) = pi^4/72, zeta*(2,2) = 7 pi^4/360."""
    mp = _mp()
    table = {
        ("strict", (2, 1)): lambda: mp.zeta(3),
        ("star", (2, 1)): lambda: 2 * mp.zeta(3),
        ("star", (2, 1, 1)): lambda: 3 * mp.zeta(4),
        ("star", (3, 1)): lambda: mp.pi**4 / 72,
        ("star", (2, 2)): lambda: 7 * mp.pi**4 / 360,
    }
    return table[(kind, tuple(index))]()


def within_error(value, err, reference):
    """True when the reported error bar covers the true error."""
    mp = _mp()
    return abs(mp.mpf(value) - reference) <= mp.mpf(err)


def digits(value, err):
    """Correct decimal digits the error bar guarantees: -log10(err/|value|)."""
    return -math.log10(err / abs(value))


def check_cyclic_text(returncode, stdout):
    """Problems with the output of `izeta verify cyclic --k 8` (text)."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    lines = stdout.decode(errors="replace").splitlines()
    oks = sum(line.startswith("ok   ") for line in lines)
    if oks != CYCLIC_K8_CERTS:
        problems.append(f"{oks} ok certificates, expected {CYCLIC_K8_CERTS}")
    if not lines or lines[-1] != f"cyclic: {CYCLIC_K8_CERTS} certificates, all ok":
        problems.append("missing or wrong summary line")
    if hashlib.sha256(stdout).hexdigest() != CYCLIC_K8_SHA256:
        problems.append("stdout digest differs from the recorded one")
    return problems


def check_sum_formula_json(returncode, stdout):
    """Problems with the output of `izeta verify sum-formula --k 11 --json`."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON document"]
    checks = doc.get("checks", [])
    if doc.get("suite") != "sum-formula" or doc.get("ok") is not True:
        problems.append("suite or ok field wrong")
    if len(checks) != SUM_FORMULA_K11_CERTS:
        problems.append(f"{len(checks)} records, expected {SUM_FORMULA_K11_CERTS}")
    bad = sum(rec.get("success") is not True for rec in checks)
    if bad:
        problems.append(f"{bad} records without success")
    return problems


CERTIFY_COMMANDS = {
    "cyclic": ["verify", "cyclic", "--k", "8"],
    "sum-formula": ["verify", "sum-formula", "--k", "11", "--json"],
}
CERTIFY_CHECKS = {"cyclic": check_cyclic_text, "sum-formula": check_sum_formula_json}

# The group-law grid takes a from sevenths and b from fifths in (-2, 2),
# so every seed pays for numbers of the same height; the numeric samples
# are rationals in (0, 1), where every sum-formula polynomial is positive.
_A_POOL = [Fraction(p, 7) for p in range(-13, 14) if p % 7]
_B_POOL = [Fraction(p, 5) for p in range(-9, 10) if p % 5]
_T_POOL = sorted({Fraction(p, q) for q in range(2, 10) for p in range(1, q)})
_CLOSED_FORM_OPS = [("star", (2, 1)), ("star", (3, 1)), ("star", (2, 2)),
                    ("star", (2, 1, 1)), ("strict", (2, 1))]


def certify_ops(seed):
    """The two CLI commands, in seeded order."""
    ops = [("cmd", name) for name in CERTIFY_COMMANDS]
    random.Random(seed).shuffle(ops)
    return ops


def laws_ops(seed):
    """392 homomorphism checks on word pairs of combined weight <= 8 and
    the group law on a seeded 4x4 rational grid over words of weight <= 7."""
    rng = random.Random(seed)
    words = words_up_to(7)
    ops = [("hom", u, v) for i, u in enumerate(words) for v in words[i:]
           if sum(u) + sum(v) <= 8]
    a_values = rng.sample(_A_POOL, 4)
    b_values = rng.sample(_B_POOL, 4)
    ops += [("group", w, a, b) for w in words for a in a_values for b in b_values]
    rng.shuffle(ops)
    return ops


def numeric_ops(seed):
    """Sum-formula values for 3 <= k <= 6, n < k at three seeded t, and
    classical values that exercise the non-strict kernel."""
    rng = random.Random(seed)
    ts = rng.sample(_T_POOL, 3)
    ops = [("sum", k, n, t) for k in range(3, 7) for n in range(1, k) for t in ts]
    ops += _CLOSED_FORM_OPS
    rng.shuffle(ops)
    # Increasing depth, seeded order within a depth: each evaluation then
    # adds the nested sums of one depth, and no single op holds most of
    # the kernel work.
    ops.sort(key=lambda op: op[2] if op[0] == "sum" else len(op[1]))
    return ops


OPS = {"certify": certify_ops, "laws": laws_ops, "numeric": numeric_ops}


def law_reference(op):
    """The right-hand side of a law op as {word: {t-power: coeff}}:
    S^t(u) * S^t(v) for "hom", S^(a+b)(w) for "group"."""
    if op[0] == "hom":
        return stuffle_sums(s_t(op[1]), s_t(op[2]))
    _, w, a, b = op
    return {u: {0: c} for u, c in s_at(w, a + b).items()}


def numeric_reference(op):
    if op[0] == "sum":
        return sum_formula_value(*op[1:])
    return closed_form(*op)


def kernel_keys(ops):
    """Distinct (composition, strict) nested sums the numeric ops need:
    every admissible word of weight k and depth <= n for a sum op."""
    keys = set()
    for op in ops:
        if op[0] == "sum":
            keys.update((w, True) for w in admissible_up_to_depth(op[1], op[2]))
        else:
            keys.add((op[1], op[0] == "strict"))
    return keys
