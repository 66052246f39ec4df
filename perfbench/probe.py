"""Machine-speed probe: a fixed piece of pure-Python work that does not use izeta.

The benchmark runs on shared virtual machines whose effective CPU speed
moves by tens of percent within seconds and between minutes-long phases,
with no steal time and with CPU time tracking wall time.  Timing this
probe in between the measured work shows how fast the machine ran at
that moment.  Its mix (Fraction arithmetic, dicts keyed by tuples, a
float loop) is the kind of work izeta's layers do.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# The probe took about this long in the calm phases of the 2-core VM the
# benchmark was tuned on; run.py scales measured times to this speed.
REFERENCE_S = 0.003
WARM_PROBES = 6


def probe():
    """Seconds taken by the fixed work."""
    start = perf_counter()
    x = Fraction(1, 3)
    for i in range(300):
        x = (x * 7 + Fraction(i % 5, 3)) % 11
    table = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    s = 0.0
    for j in range(1, 3000):
        s += (1.0 / j) ** 2
    return perf_counter() - start


def mean_probe(count=WARM_PROBES):
    """Mean of `count` probes after one untimed warm-up call."""
    probe()
    return sum(probe() for _ in range(count)) / count


class Sampler:
    """While active, a SIGALRM every `interval` seconds times one probe.

    The probes run in this process between the bytecodes of whatever is
    being measured, so they see the machine as that work sees it, without
    a second thread or process.  `busy` is the time spent in probes; a
    region's own time is its elapsed time minus the growth of `busy`.
    """

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []
        self.busy = 0.0

    def mean(self):
        return sum(self.samples) / len(self.samples)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(probe())
        self.busy += perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        probe()
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        return False
