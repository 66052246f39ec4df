"""Self-checks of the benchmark: every oracle must be able to fail.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracle.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402
from izeta import cli  # noqa: E402


def test_numeric_op_fails_against_a_reference_off_by_1e_6(monkeypatch):
    ops = [("star", (3, 1))]
    results, _ = jobs.run_ops(jobs.Tracer(False), "numeric", ops)
    assert jobs.check_numeric(ops, results)[0] == []
    true_reference = oracle.numeric_reference
    monkeypatch.setattr(oracle, "numeric_reference",
                        lambda op: true_reference(op) * (1 + 1e-6))
    problems, _ = jobs.check_numeric(ops, results)
    assert any("true error exceeds" in p for p in problems)


def test_law_oracle_agrees_with_izeta_and_catches_a_wrong_result():
    ops = [("hom", (2, 1), (3,)), ("group", (1, 2, 1), Fraction(1, 3), Fraction(-5, 4))]
    results, _ = jobs.run_ops(jobs.Tracer(False), "laws", ops)
    assert jobs.check_laws(ops, results)[0] == []
    doubled = [(same, rhs + rhs) for same, rhs in results]
    assert len(jobs.check_laws(ops, doubled)[0]) == len(ops)


def _cli_output(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(oracle.CERTIFY_COMMANDS[name])
    return rc, buf.getvalue().encode()


def test_certify_checks_pass_on_izeta_output_and_fail_on_tampered_output():
    rc, text = _cli_output("cyclic")
    assert oracle.check_cyclic_text(rc, text) == []
    assert oracle.check_cyclic_text(1, text)
    assert oracle.check_cyclic_text(rc, text.replace(b"word=2,1,1", b"word=2,1,2", 1))

    rc, raw = _cli_output("sum-formula")
    assert oracle.check_sum_formula_json(rc, raw) == []
    doc = json.loads(raw)
    doc["checks"][3]["success"] = False
    assert oracle.check_sum_formula_json(rc, json.dumps(doc).encode())


def test_traced_pipeline_spans_cover_the_calls_into_izeta():
    tr = jobs.Tracer(True)
    ops = [("hom", (1,), (2,))]
    jobs.run_ops(tr, "laws", ops)
    names = [span[0] for span in tr.spans]
    assert names[0] == "op.hom" and names.count("interpolate.s_t") == 3
    assert all(parent == 0 for _, parent, *_ in tr.spans[1:])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "laws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout.decode()


def test_traced_certificates_must_match_the_reduction_they_replay():
    from izeta.reduction import verify_sf_reduction

    ops = [("cmd", "sum-formula")]
    pairs = [(cert, True) for cert in jobs._sum_formula_certs(jobs.Tracer(False), 4)]
    reference = {"sum-formula": verify_sf_reduction(4)}
    assert jobs.check_certify(ops, [pairs], reference)[0] == []
    reference["sum-formula"][1].coefficients = None
    assert jobs.check_certify(ops, [pairs], reference)[0]


def test_probe_time_is_taken_out_of_the_op_times():
    ops = [("star", (3, 1))]
    jobs.clear_caches()
    start = time.perf_counter()
    with probe.Sampler(interval=0.01) as sampler:
        _, op_s = jobs.run_ops(jobs.Tracer(False), "numeric", ops, sampler)
    elapsed = time.perf_counter() - start
    assert len(sampler.samples) > 3 and sampler.busy > 0
    assert op_s[0] + sampler.busy <= elapsed
