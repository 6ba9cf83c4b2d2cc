"""Host-speed calibration: op times are reported at a fixed reference speed.

The benchmark runs on shared hosts whose speed changes by up to a factor of
two within seconds while the process keeps its CPU (other tenants share
cores, caches and memory bandwidth).  A ``Sampler`` therefore runs a fixed
pure-Python probe, which uses none of kernelforge, every 50 ms, also while
an op runs, and each op's time (less the probes inside it) is scaled by

    REF_PROBE_S / (median probe time during and around the op)

so that a slow spell slows the probe and the program alike and cancels out,
while a change to the program moves only the program's time.  The raw rate
is printed next to the scaled one in the ``info`` line.

Set-up is timed and scaled the same way, as one long op.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Seconds one probe takes at the reference speed: about its time on an
# otherwise idle 2-vCPU Intel Xeon virtual machine, where a busy neighbour
# doubles it.  It only fixes the scale of the reported times.
REF_PROBE_S = 0.001

# Operands of the series half of the probe.
_COEF = [1.0 / (j + 1) for j in range(48)]
_POW1 = [(0.6 + 0.3j) ** j for j in range(48)]
_POW2 = [(0.2 - 0.7j) ** j for j in range(48)]


def _probe() -> complex:
    """Interpreter work of the kinds kernelforge does, in two halves of
    about equal time.  When the host is busy, the first half (a recurrence
    with dict and list traffic) slows more than kernelforge's ops and the
    second (generator sums of complex products, the shape of the series
    loops) slows less on some workloads, so their sum tracks the ops better
    than either half alone."""
    z = 0.31 + 0.42j
    acc = 0j
    seen = {}
    vals = []
    for i in range(600):
        acc = acc * z + complex(i, -0.5 * i) / (i + 1.0)
        if abs(acc) > 1e3:
            acc *= 1e-3
        seen[i & 63] = acc.real
        vals.append(max(acc.imag, seen.get((i * 7) & 63, 0.0)))
    vals.sort()
    coef, p1, p2 = _COEF, _POW1, _POW2
    for _ in range(2):
        for n in range(44):
            acc += sum(coef[j] * p1[j] * p2[n - j] for j in range(n + 1))
    return acc + sum(vals) + len(seen)


class Sampler:
    """Probes the host every `interval` seconds of wall time from a SIGALRM
    handler, so that an op of several seconds is probed while it runs.

    The handler runs in the main thread between bytecodes; `spent` is the
    total time it took, which the caller subtracts from the op it
    interrupted."""

    # An op is scaled by the probes taken while it ran and within PAD_S
    # seconds either side of it.
    PAD_S = 0.1

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.times: list = []
        self.probes: list = []
        self.spent = 0.0
        self._old = None

    def _on_alarm(self, signum=None, frame=None) -> None:
        t = perf_counter()
        _probe()
        d = perf_counter() - t
        self.times.append(t)
        self.probes.append(d)
        self.spent += d

    def __enter__(self) -> "Sampler":
        self._on_alarm()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self._old is None:       # already stopped
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._old = None
        self._on_alarm()

    def clock(self) -> float:
        """perf_counter less the time spent probing so far: an interval on
        this clock leaves out the probes inside it."""
        return perf_counter() - self.spent

    def scale_between(self, start: float, end: float) -> float:
        """Factor for raw seconds measured between `start` and `end`."""
        lo = bisect.bisect_left(self.times, start - self.PAD_S)
        hi = bisect.bisect_right(self.times, end + self.PAD_S)
        if hi - lo < 2:     # fewer than two probes near: take the nearest two
            lo = max(0, min(lo, len(self.times) - 2))
            hi = lo + 2
        return REF_PROBE_S / statistics.median(self.probes[lo:hi])
