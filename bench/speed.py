"""Machine-speed normalisation for timings taken on a shared machine.

On a machine shared with other tenants the speed of one core wanders by
+-20% within seconds, and by as much between runs a minute apart; process
CPU time wanders with it.  A run therefore samples the speed while it
measures: every ``INTERVAL_S`` a timer signal runs a fixed probe (pure
Python arithmetic on 256-bit mpf values, through ``mpmath.libmp`` with
explicit precision, so no global state is touched) and records how long it
took.  A cell's wall time, minus the probes that ran inside it, is scaled by
``REFERENCE_PROBE_S / (mean probe time around the cell)``: the time the
cell would have taken at the speed at which the probe takes
``REFERENCE_PROBE_S``.  Wall times are reported alongside.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

from mpmath.libmp import fone, from_str, mpf_add, mpf_div, mpf_mul, round_nearest

#: Probe time that defines reference speed: about its median on a busy,
#: shared 2-core x86 machine.
REFERENCE_PROBE_S = 0.005
INTERVAL_S = 0.1

_PREC = 256
_C1 = from_str("1.0000001", _PREC, round_nearest)
_C2 = from_str("1.0000002", _PREC, round_nearest)


def probe() -> float:
    """Duration of a fixed amount of mpf arithmetic (about 3.5 ms).

    The cyclic collector is off while it runs: a collection costs more the
    larger the program's heap is, and that cost belongs to the program, not
    to the machine's speed.  The probe's tuples die at once, so it leaves the
    collector's allocation count where it found it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        x = fone
        for _ in range(1000):
            x = mpf_div(mpf_add(mpf_mul(x, _C1, _PREC, round_nearest), fone, _PREC, round_nearest),
                        _C2, _PREC, round_nearest)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Samples the probe from ``SIGALRM`` while the ``with`` block runs."""

    def __init__(self):
        self.samples = []  # (start, duration)
        self._previous = None

    def sample(self, signum=None, frame=None):
        """Time one probe now; also the ``SIGALRM`` handler."""
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def _between(self, start, end):
        starts = [s for s, _ in self.samples]
        return self.samples[bisect.bisect_left(starts, start):bisect.bisect_right(starts, end)]

    def probe_time(self, start, end) -> float:
        """Time the probes took inside [start, end]."""
        return sum(d for _, d in self._between(start, end))

    def factor(self, start, end) -> float:
        """Reference probe time over the mean probe time around [start, end]."""
        around = self._between(start - INTERVAL_S, end + INTERVAL_S)
        if not around:
            around = [min(self.samples, key=lambda s: abs(s[0] - start))]
        # the mean, not the median: slowdowns come in bursts, and a burst
        # slows the cell in proportion to its share of the cell's time
        return REFERENCE_PROBE_S / statistics.mean(d for _, d in around)

    def median_probe_s(self) -> float:
        return statistics.median(d for _, d in self.samples)
