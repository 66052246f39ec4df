#!/usr/bin/env python3
"""Benchmark of izeta: three closed-loop workloads, one op at a time.

    python3 perfbench/run.py --workload certify|laws|numeric|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each repetition of a workload runs in a fresh Python process, so the
package's memo tables start cold as they do for every CLI call.  The run
repeats the job for about --seconds, at least three times.  Times are
reported at one reference machine speed, measured by probes timed in
between the work (probe.py).
`--trace 0` prints the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics of a traced run.  The last stdout line is one JSON
object; the lines before it are for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "laws", "numeric")
MIN_REPS = 3
SETUP_SAMPLES_PER_REP = 4
WORKER_TIMEOUT_S = 150


def _worker(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          env=env, capture_output=True, timeout=WORKER_TIMEOUT_S)


def _json_worker(args):
    proc = _worker(args)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed:\n{proc.stderr.decode()}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _scaled(seconds, probe_s):
    """`seconds` as they would read at the reference machine speed, where
    a probe takes probe.REFERENCE_S.  `probe_s` is the mean of the probes
    timed in between the work: time is additive, so the mean, not the
    median, counts a run's slow moments as the work does."""
    return seconds * probe.REFERENCE_S / probe_s


def _certify_rep(seed):
    """Both CLI commands, each in its own process, in seeded order."""
    rep = {"setup": [], "raw_setup": [], "wall": 0.0, "raw_wall": 0.0, "probes": [],
           "peak_rss_mb": 0.0, "attempted": 0, "failed": 0, "problems": []}
    for _, name in oracle.certify_ops(seed):
        proc = _worker(["cli", *oracle.CERTIFY_COMMANDS[name]])
        try:
            stats = json.loads(proc.stderr.decode().splitlines()[-1])
        except (IndexError, ValueError):
            raise RuntimeError(f"izeta {name} crashed:\n{proc.stderr.decode()}") from None
        problems = oracle.CERTIFY_CHECKS[name](proc.returncode, proc.stdout)
        _add_setup(rep, stats)
        rep["wall"] += _scaled(stats["wall_s"], stats["probe_s"])
        rep["raw_wall"] += stats["wall_s"]
        rep["probes"].append(stats["probe_s"])
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], stats["peak_rss_mb"])
        rep["kernel"] = stats["kernel"]
        rep["attempted"] += 1
        rep["failed"] += bool(problems)
        rep["problems"] += [f"{name}: {p}" for p in problems]
    return rep


def _add_setup(rep, stats):
    rep["setup"].append(_scaled(stats["setup_s"], stats["setup_probe_s"]))
    rep["raw_setup"].append(stats["setup_s"])


def _job_rep(mode, workload, seed):
    """One fresh process running the job; its wall time is the sum of the
    op times, probes excluded."""
    rep = _json_worker([mode, workload, str(seed)])
    rep["raw_wall"] = sum(rep["op_s"])
    rep["wall"] = _scaled(rep["raw_wall"], rep["probe_s"])
    rep["probes"] = [rep["probe_s"]]
    rep["setup"], rep["raw_setup"] = [], []
    _add_setup(rep, rep)
    return rep


def _rep(workload, seed):
    """One repetition of the job plus set-up-only samples."""
    rep = _certify_rep(seed) if workload == "certify" else _job_rep("job", workload, seed)
    for _ in range(SETUP_SAMPLES_PER_REP):
        _add_setup(rep, _json_worker(["setup", workload]))
    return rep


def _repeat(seconds, one_rep):
    """Repeat until time is up, at least MIN_REPS times; a repetition is
    started only if it is expected to end less than half its length past
    the deadline.  `one_rep` gets the repetition's index."""
    _json_worker(["setup", "certify"])  # writes bytecode caches; not timed
    reps, start = [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) / 2 > seconds:
            return reps
        reps.append(one_rep(len(reps)))


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"median of {len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def _probe_s(reps):
    return statistics.median(p for r in reps for p in r["probes"])


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics over the run's repetitions."""
    reps = _repeat(seconds, lambda _: _rep(workload, seed))
    setups = [s for r in reps for s in r["setup"]]
    walls = [r["wall"] for r in reps]
    rss = [r["peak_rss_mb"] for r in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }
    raw_setups = [s for r in reps for s in r["raw_setup"]]
    raw_walls = [r["raw_wall"] for r in reps]
    info = {"setup_s": f"{_spread(setups)}; as measured: {statistics.median(raw_setups):.4g} s",
            "wall_s": f"{_spread(walls)}; as measured: {statistics.median(raw_walls):.4g} s",
            "peak_rss_mb": _spread(rss)}
    if workload == "numeric":
        digits = reps[-1]["digits"]
        info["digits_min"] = f"{min(digits):.4f} digits"
        info["digits_per_s"] = f"{sum(digits) / metrics['wall_s']:.4f} digits/s"
    info["drift.probe_s"] = f"{_probe_s(reps):.4g} s (reference {probe.REFERENCE_S} s)"
    return metrics, info, reps


def _traced_rep(workload, seed, index):
    """A traced and an untraced run of the job, each in a fresh process;
    they take turns going first."""
    order = ["trace", "job"] if index % 2 else ["job", "trace"]
    out = {mode: _job_rep(mode, workload, seed) for mode in order}
    rep = out["trace"]
    rep["untraced_wall"] = out["job"]["wall"]
    rep["probes"] += out["job"]["probes"]
    rep["attempted"] += out["job"]["attempted"]
    rep["failed"] += out["job"]["failed"]
    rep["problems"] += out["job"]["problems"]
    return rep


def measure_traced(workload, seed, seconds):
    """Traced run: per-layer metrics, medians over repetitions; the spans
    of the last repetition are written to perfbench/out/."""
    ops = oracle.OPS[workload](seed)
    reps = _repeat(seconds, lambda i: _traced_rep(workload, seed, i))
    names = reps[-1]["metrics"].keys()
    metrics = {name: statistics.median(r["metrics"][name] for r in reps) for name in names}
    untraced_s = statistics.median(r["untraced_wall"] for r in reps)
    metrics["trace.overhead_frac"] = statistics.median(r["wall"] for r in reps) / untraced_s - 1
    if workload == "numeric":
        metrics["numeric.digits_per_s"] = sum(reps[-1]["digits"]) / untraced_s
    metrics["drift.probe_s"] = _probe_s(reps)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    trace_file = out / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({"ops": [repr(op) for op in ops],
                                      "spans": reps[-1]["spans"]}))
    info = {"spans": f"{len(reps[-1]['spans'])} written to {trace_file.relative_to(ROOT)}"}
    return metrics, info, reps


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(kernel):
    """Results are comparable only between equal fingerprints; the kernel
    above all, since the compiled one changes `numeric` several-fold."""
    import mpmath

    return {"python": platform.python_version(), "kernel": kernel,
            "mpmath": mpmath.__version__, "git": _git_sha(),
            "nproc": os.cpu_count(), "cpu": _cpu_model()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "izeta" / "__init__.py").is_file():
        print(f"error: no izeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run = measure_traced if args.trace else measure
        metrics, info, reps = run(workload, args.seed, args.seconds)
        unknown = set(metrics) - set(units)
        if unknown:
            raise RuntimeError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        info["fail_frac"] = f"{failed / attempted:.4g} ratio ({failed} of {attempted} ops)"
        print(f"# {workload} seed={args.seed} env {json.dumps(fingerprint(reps[-1]['kernel']))}")
        for name, unit in units.items():
            value = metrics.get(name, 0)
            print(f"# {workload} {name} = {value:.6g} {unit}"
                  + (f"  ({info[name]})" if name in info else ""))
        for name, text in info.items():
            if name not in units:
                print(f"# {workload} {name} = {text}")
        for problem in [p for r in reps for p in r["problems"]][:10]:
            print(f"# {workload} FAILED {problem}")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                        for name, unit in units.items()},
        }
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
