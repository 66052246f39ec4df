"""One fresh benchmark process, started by run.py.

    worker.py setup <workload>          time the set-up only
    worker.py cli <izeta argv...>       run the izeta CLI as `izeta` would
    worker.py job <workload> <seed>     untimed inputs, timed job, checks
    worker.py trace <workload> <seed>   the same, traced, with per-layer counters

Nothing but `sys` and `time` is imported before the set-up is timed, so
the set-up time is what a fresh `izeta` process pays after interpreter
start.  Every mode then times a few machine-speed probes (probe.py), and
the timed work runs with probes interleaved, so run.py can scale each
time to one machine speed.  `cli` writes the CLI's own output to stdout
and its timings as one JSON line to stderr; the other modes print one
JSON line to stdout.
"""

import sys
import time


def _setup(workload):
    start = time.perf_counter()
    import izeta  # noqa: F401

    if workload == "certify":
        from izeta import cli

        cli.build_parser()
    return time.perf_counter() - start


def main(argv):
    mode, rest = argv[0], argv[1:]
    workload = "certify" if mode == "cli" else rest[0]
    setup_s = _setup(workload)
    import json

    import probe

    speed = {"setup_s": setup_s, "setup_probe_s": probe.mean_probe()}
    if mode == "cli":
        import resource

        from izeta import cli
        from izeta.numeric import kernel_name

        with probe.Sampler() as sampler:
            start, busy = time.perf_counter(), sampler.busy
            rc = cli.run(rest)
            sys.stdout.flush()
            wall_s = time.perf_counter() - start - (sampler.busy - busy)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps({**speed, "wall_s": wall_s, "probe_s": sampler.mean(),
                          "peak_rss_mb": rss_mb, "kernel": kernel_name()}), file=sys.stderr)
        return rc

    out = {}
    if mode in ("job", "trace"):
        import jobs
        import oracle

        ops = oracle.OPS[workload](int(rest[1]))
        out = getattr(jobs, mode)(workload, ops)
    print(json.dumps({**out, **speed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
