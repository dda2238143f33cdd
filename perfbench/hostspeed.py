"""Host-speed calibration of the benchmark's timings.

The hosts this benchmark runs on change speed by up to about 1.8x, in
spells from under a second to minutes, when other tenants load the shared
cores.  The guest cannot see it: thread CPU time slows with wall time and
no steal time is reported.  So a run interleaves a fixed reference kernel,
owned by the benchmark and never by the library, with the library calls
("ticks"), and scales every library time by REF_NOMINAL_S over the
reference's median duration around that time.  Set-up time and the pooled
scan's wall time are not scaled (see run.py and workloads.py).  A clock
with no ticks scales by 1.  A scaled time reads as seconds on a host on
which the reference takes REF_NOMINAL_S.  At a fixed host speed the scale
is a constant, so a change to the library moves a scaled time exactly as
it moves the raw wall time; raw times are reported beside the scaled ones.
"""

import gc
import json
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# a round figure near the reference's duration on a 2-vCPU Intel Xeon host
# at its faster speed, Python 3.11
REF_NOMINAL_S = 1.0e-3
# a tick is taken between library calls at most this often
TICK_GAP_S = 0.02
# fewest ticks a scale is taken from.  The host's speed changes within a
# second, so a scale comes from the ticks nearest the interval it scales: on
# classify-wide, medians of ticks within 0.1 to 1 s of each item left the
# p50 of 10-second stretches of one run about twice as spread
MIN_TICKS = 3


def reference():
    """About a millisecond of the work the library's pure-Python layers do:
    integer arithmetic, tuple and list building, a dict and JSON text."""
    acc = 0
    for i in range(2500):
        acc += i * i % 7
    rows = [(i, 3 * i, -i) for i in range(1200)]
    table = {i: row for i, row in enumerate(rows[::2])}
    return acc + len(json.dumps(rows)) + len(table)


class HostClock:
    """Reference ticks of one run: midpoints and durations, in time order."""

    def __init__(self):
        self.mid = []
        self.dur = []

    def tick(self, n=1):
        enabled = gc.isenabled()
        gc.disable()  # the reference must not pay for the library's heap
        try:
            for _ in range(n):
                t0 = perf_counter()
                reference()
                t1 = perf_counter()
                self.mid.append((t0 + t1) / 2)
                self.dur.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def maybe_tick(self):
        """Tick when the last tick is more than TICK_GAP_S old."""
        if not self.mid or perf_counter() - self.mid[-1] >= TICK_GAP_S:
            self.tick()

    def scale(self, t0, t1):
        """REF_NOMINAL_S over the median tick within [t0, t1], widened to
        the MIN_TICKS nearest ticks when the interval holds fewer; 1 when
        there are no ticks."""
        if not self.dur:
            return 1.0
        lo = bisect_left(self.mid, t0)
        hi = bisect_right(self.mid, t1)
        while hi - lo < min(MIN_TICKS, len(self.dur)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.dur))
        return REF_NOMINAL_S / statistics.median(self.dur[lo:hi])

    def scaled(self, t0, seconds):
        """`seconds` of wall time starting at t0, scaled to nominal speed."""
        return seconds * self.scale(t0, t0 + seconds)

    def summary(self):
        return {"ticks": len(self.dur),
                "ref_median_ms": 1e3 * statistics.median(self.dur or [0.0])}
