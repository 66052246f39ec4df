"""The workloads as they run inside one fresh benchmark process.

Every call into izeta goes through `Tracer.span`, so the untraced job and
the traced run make the same calls in the same order; with tracing off a
span is a plain call.  Outputs are checked against `oracle` after the
timed region, and that check is never timed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import operator
import resource
from collections import Counter
from fractions import Fraction
from time import perf_counter

from izeta import algebra, cli, identities, interpolate, numeric
from izeta.algebra import (
    FormalSum,
    Word,
    harmonic_product,
    substitute_t,
    t_harmonic_product,
)
from izeta.identities import (
    csf_generator,
    cyclic_C,
    cyclic_Sigma,
    sum_poly,
    sum_words,
    words_of_weight,
)
from izeta.interpolate import s_alpha, s_t, taylor_shift
from izeta.numeric import eval_element, kernel_name, mzsv, mzv
from izeta.reduction import (
    RelationCertificate,
    SpanSolver,
    verify_csf_reduction,
    verify_sf_reduction,
)

import oracle
import probe


class Tracer:
    """Spans around calls into izeta, kept in memory until the run ends.

    A span is [name, parent index or -1, start, end, terms out]; spans
    opened inside another span's call record it as their parent, so the
    spans of one op share the op's root span.
    """

    def __init__(self, on):
        self.on = on
        self.spans = []
        self._parent = -1

    def span(self, name, fn, *args):
        if not self.on:
            return fn(*args)
        record = [name, self._parent, 0.0, 0.0, 0]
        outer, self._parent = self._parent, len(self.spans)
        self.spans.append(record)
        record[2] = perf_counter()
        try:
            out = fn(*args)
        finally:
            record[3] = perf_counter()
            self._parent = outer
        record[4] = _terms(out)
        return out


def _terms(x):
    """Terms in a call's result: words of a formal sum or of a list."""
    if isinstance(x, FormalSum):
        return len(x)
    if isinstance(x, list):
        return sum(_terms(item) for item in x)
    return 1 if isinstance(x, Word) else 0


def run_ops(tr, workload, ops, sampler=None):
    """Run every op of a workload in order; returns the results and the
    seconds each op took, less the time of any `sampler` probes in it."""
    op_fn = OPS[workload]
    results, seconds = [], []
    for op in ops:
        busy = sampler.busy if sampler else 0.0
        start = perf_counter()
        results.append(tr.span(f"op.{op[0]}", op_fn, tr, op))
        seconds.append(perf_counter() - start - ((sampler.busy if sampler else 0.0) - busy))
    return results, seconds


# --- certify: the reductions behind the two `verify` commands, step by step


def _cyclic_certs(tr, k):
    """verify_csf_reduction(k) at alpha = 0, one public call per step."""
    words = [w for w in tr.span("identities.words_of_weight", words_of_weight, k)
             if w.depth < k]
    zk1 = FormalSum.from_word(Word((k + 1,)))
    alpha = Fraction(0)
    gens = []
    for w in words:
        sigma = tr.span("interpolate.s_alpha", s_alpha,
                        tr.span("identities.cyclic_Sigma", cyclic_Sigma, w), 0)
        rot = tr.span("interpolate.s_alpha", s_alpha,
                      tr.span("identities.cyclic_C", cyclic_C, w), 0)
        gens.append(tr.span("algebra.arith", lambda: (
            sigma + rot * (alpha - 1) - zk1 * (k * alpha**w.depth))))
    solver = tr.span("reduction.SpanSolver", SpanSolver, gens)
    certs = []
    for w in words:
        f = tr.span("identities.csf_generator", csf_generator, w)
        parts = tr.span("interpolate.taylor_shift", taylor_shift, f, 0)
        parts += [FormalSum.zero()] * (w.depth + 1 - len(parts))
        for power, part in enumerate(parts):
            coeffs = tr.span("reduction.coefficients_for", solver.coefficients_for, part)
            certs.append(RelationCertificate(
                part, gens, coeffs, label=f"cyclic k={k} word={w} power={power}"))
    return certs


def _sum_formula_certs(tr, k):
    """verify_sf_reduction(k) at alpha = 0, one public call per step."""
    zk = FormalSum.from_word(Word((k,)))
    gens = []
    for m in range(1, k):
        lifted = tr.span("interpolate.s_alpha", s_alpha,
                         tr.span("identities.sum_words", sum_words, k, m), 0)
        poly = tr.span("identities.sum_poly", sum_poly, k, m)
        gens.append(tr.span("algebra.arith", lambda: lifted - zk * poly.evaluate(0)))
    solver = tr.span("reduction.SpanSolver", SpanSolver, gens)
    certs = []
    for n in range(1, k):
        lifted = tr.span("interpolate.s_t", s_t,
                         tr.span("identities.sum_words", sum_words, k, n))
        poly = tr.span("identities.sum_poly", sum_poly, k, n)
        e = tr.span("algebra.arith", lambda: lifted - zk * poly)
        parts = tr.span("interpolate.taylor_shift", taylor_shift, e, 0)
        parts += [FormalSum.zero()] * (n - len(parts))
        for power, part in enumerate(parts):
            coeffs = tr.span("reduction.coefficients_for", solver.coefficients_for, part)
            certs.append(RelationCertificate(
                part, gens, coeffs, label=f"sum-formula k={k} n={n} power={power}"))
    return certs


CERTIFY_STEPS = {
    "cyclic": (_cyclic_certs, verify_csf_reduction, 8),
    "sum-formula": (_sum_formula_certs, verify_sf_reduction, 11),
}


def _certify_op(tr, op):
    build, _, k = CERTIFY_STEPS[op[1]]
    certs = build(tr, k)
    return [(c, c.success and tr.span("reduction.verify", c.verify)) for c in certs]


# --- laws: operator laws of the exact layer


def _law_op(tr, op):
    if op[0] == "hom":
        eu = FormalSum.from_word(Word(op[1]))
        ev = FormalSum.from_word(Word(op[2]))
        lhs = tr.span("interpolate.s_t", s_t,
                      tr.span("algebra.t_harmonic_product", t_harmonic_product, eu, ev))
        rhs = tr.span("algebra.harmonic_product", harmonic_product,
                      tr.span("interpolate.s_t", s_t, eu),
                      tr.span("interpolate.s_t", s_t, ev))
    else:
        _, w, a, b = op
        e = FormalSum.from_word(Word(w))
        lhs = tr.span("interpolate.s_alpha", s_alpha,
                      tr.span("interpolate.s_alpha", s_alpha, e, b), a)
        rhs = tr.span("algebra.substitute_t", substitute_t,
                      tr.span("interpolate.s_t", s_t, e), a + b)
    return tr.span("algebra.eq", operator.eq, lhs, rhs), rhs


# --- numeric: interpolated sum formula and classical star values


def _numeric_op(tr, op):
    if op[0] == "sum":
        _, k, n, t = op
        e = tr.span("interpolate.s_t", s_t, tr.span("identities.sum_words", sum_words, k, n))
        return tr.span("numeric.eval_element", eval_element, e, t, oracle.NUMERIC_M)
    fn = mzsv if op[0] == "star" else mzv
    return tr.span(f"numeric.{fn.__name__}", fn, op[1], oracle.NUMERIC_M)


OPS = {"certify": _certify_op, "laws": _law_op, "numeric": _numeric_op}


# --- checks against the oracle (untimed)


def _canonical(e):
    return {w.letters: dict(p.coeffs) for w, p in e.terms.items()}


def check_laws(ops, results):
    problems = []
    for op, (same, rhs) in zip(ops, results):
        if not same:
            problems.append(f"law fails on {op}")
        elif _canonical(rhs) != oracle.law_reference(op):
            problems.append(f"result differs from the oracle on {op}")
    return problems, {}


def check_numeric(ops, results):
    problems, digits, tightest = [], [], None
    for op, res in zip(ops, results):
        ref = oracle.numeric_reference(op)
        if not oracle.within_error(res.value, res.err, ref):
            problems.append(f"true error exceeds err={res.err:.3e} on {op}")
            continue
        digits.append(oracle.digits(res.value, res.err))
        if tightest is None or digits[-1] > tightest[0]:
            tightest = (digits[-1], res, ref)
    # The oracle must be able to fail: a reference off by one part in 1e6
    # has to be caught on the op with the tightest error bar.
    if tightest and oracle.within_error(tightest[1].value, tightest[1].err,
                                        tightest[2] * (1 + 1e-6)):
        problems.append("self-check: a 1e-6 perturbed reference was not caught")
    return problems, {"digits": digits}


def _cert_key(cert):
    return cert.label, cert.target, cert.coefficients, cert.generators


def check_certify(ops, results, reference=None):
    """Every certificate ok and, given what verify_*_reduction returns,
    identical to it."""
    problems = []
    for op, pairs in zip(ops, results):
        problems += [f"certificate {cert.label} not ok" for cert, ok in pairs if not ok]
        if reference is not None and (
                [_cert_key(c) for c, _ in pairs] != [_cert_key(c) for c in reference[op[1]]]):
            problems.append(f"{op[1]}: certificates differ from verify_*_reduction")
    return problems, {}


CHECKS = {"certify": check_certify, "laws": check_laws, "numeric": check_numeric}


def _outcome(check, ops, results, op_s, problems=()):
    found, extra = check(ops, results)
    problems = [*problems, *found]
    return {"op_s": op_s, "attempted": len(ops), "failed": min(len(problems), len(ops)),
            "problems": problems[:5], "kernel": kernel_name(), **extra}


def _sampled_run(tr, workload, ops):
    """run_ops with machine-speed probes interleaved; also returns their
    mean."""
    with probe.Sampler() as sampler:
        results, op_s = run_ops(tr, workload, ops, sampler)
    return results, op_s, sampler.mean()


def job(workload, ops):
    """Untraced run of the job; for certify, of the pipeline `trace`
    follows, so that the two can be compared."""
    results, op_s, probe_s = _sampled_run(Tracer(False), workload, ops)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"peak_rss_mb": rss_mb, "probe_s": probe_s,
            **_outcome(CHECKS[workload], ops, results, op_s)}


def clear_caches():
    """Empty every memo table of the package, as in a fresh process."""
    for module in (algebra, interpolate, identities, numeric):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _hit_ratio(module, *names):
    hits = misses = 0
    for name in names:
        info = getattr(getattr(module, name, None), "cache_info", None)
        if info is not None:
            hits += info().hits
            misses += info().misses
    return (hits / (hits + misses) if hits + misses else 0.0), misses


def _cli_costs(ops):
    """In-process `cli.run(argv)` against the bare verify_*_reduction call
    it wraps, both from cold caches; the difference is rendering."""
    out = {"cli.run_s": 0.0, "cli.render_s": 0.0, "cli.stdout_bytes": 0}
    reference, problems = {}, []
    for _, name in ops:
        clear_caches()
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(oracle.CERTIFY_COMMANDS[name])
        run_s = perf_counter() - start
        clear_caches()
        _, verify, k = CERTIFY_STEPS[name]
        start = perf_counter()
        reference[name] = verify(k)
        verify_s = perf_counter() - start
        stdout = buf.getvalue().encode()
        problems += oracle.CERTIFY_CHECKS[name](rc, stdout)
        out["cli.run_s"] += run_s
        out["cli.render_s"] += run_s - verify_s
        out["cli.stdout_bytes"] += len(stdout)
    return out, reference, problems


def layer_metrics(spans):
    """Busy (self) time, calls and terms out per span name, folded into
    the per-module metrics."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy, calls, terms = Counter(), Counter(), Counter()
    for (name, _, start, end, n), inner in zip(spans, child):
        busy[name] += end - start - inner
        calls[name] += 1
        terms[name] += n

    def total(counter, *prefixes):
        return sum(v for k, v in counter.items() if k.startswith(prefixes))

    products = ("algebra.harmonic_product", "algebra.t_harmonic_product")
    evals = ("numeric.eval_element", "numeric.mzsv", "numeric.mzv")
    return {
        "identities.build_s": total(busy, "identities."),
        "identities.calls": total(calls, "identities."),
        "identities.terms_out": total(terms, "identities."),
        "interpolate.s_t_s": busy["interpolate.s_t"],
        "interpolate.s_alpha_s": busy["interpolate.s_alpha"],
        "interpolate.taylor_shift_s": busy["interpolate.taylor_shift"],
        "interpolate.terms_out": total(terms, "interpolate."),
        "reduction.solver_build_s": busy["reduction.SpanSolver"],
        "reduction.solve_s": busy["reduction.coefficients_for"],
        "reduction.cert_verify_s": busy["reduction.verify"],
        "reduction.targets": calls["reduction.coefficients_for"],
        "algebra.product_s": total(busy, *products),
        "algebra.product_calls": total(calls, *products),
        "algebra.terms_out": total(terms, *products),
        "algebra.substitute_s": busy["algebra.substitute_t"],
        "algebra.arith_s": total(busy, "algebra.arith", "algebra.eq"),
        "numeric.eval_s": total(busy, *evals),
        "numeric.evals": total(calls, *evals),
        "trace.glue_s": total(busy, "op."),
        "trace.spans": len(spans),
    }


def trace(workload, ops):
    """Traced run of the job in a fresh process: per-layer counters, the
    spans, and the per-op times to compare with an untraced `job`."""
    tr = Tracer(True)
    results, op_s, probe_s = _sampled_run(tr, workload, ops)
    metrics = layer_metrics(tr.spans)
    ratio, _ = _hit_ratio(interpolate, "_s_t_word")
    metrics["interpolate.s_t_cache_hit_ratio"] = ratio
    ratio, _ = _hit_ratio(algebra, "_harmonic_ww", "_star_ww", "_t_harmonic_ww")
    metrics["algebra.product_cache_hit_ratio"] = ratio
    ratio, misses = _hit_ratio(numeric, "_checkpoints")
    metrics["numeric.checkpoint_cache_hit_ratio"] = ratio
    metrics["numeric.kernel_calls"] = misses

    check, problems = CHECKS[workload], []
    if workload == "certify":
        costs, reference, problems = _cli_costs(ops)
        metrics.update(costs)
        check = functools.partial(check_certify, reference=reference)
        certs = [pair for pairs in results for pair in pairs]
        metrics["reduction.generators"] = sum(len(pairs[0][0].generators) for pairs in results)
        metrics["reduction.nonzero_coeffs"] = sum(
            sum(1 for c in cert.coefficients or () if c) for cert, _ in certs)
        metrics["reduction.certified_ratio"] = sum(ok for _, ok in certs) / len(certs)
    if workload == "numeric":
        depths = sum(len(w) for w, _ in oracle.kernel_keys(ops))
        metrics["numeric.kernel_ops"] = depths * oracle.NUMERIC_M
        metrics["numeric.bytes_moved_computed"] = depths * 16 * (oracle.NUMERIC_M + 1)
    out = _outcome(check, ops, results, op_s, problems)
    if workload == "numeric":
        metrics["numeric.digits_min"] = min(out["digits"], default=0.0)
    return {"metrics": metrics, "spans": tr.spans, "probe_s": probe_s, **out}
