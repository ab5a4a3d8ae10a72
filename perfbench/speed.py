"""Machine-speed meter.

On a shared host the same code can run at speeds half apart from one
second to the next, as other tenants come and go on the same cores.  To
keep that out of the figures, `Meter` times a short probe every INTERVAL_S
from a SIGALRM handler, in the measured process itself and in the middle
of the measured work, and scales each wall-clock sample by REFERENCE_S
over the median probe time of the ticks during the sample (see
`Meter.factor`): a reported time is the time the sample would have taken
on a machine where the probe takes REFERENCE_S.  `Meter.clock` leaves the
probes' own time out, so no sample includes them.

The probe does the kind of work snapnet spends its time on, hashing tuples
and strings into dicts and sets and pushing and popping a heap, and shares
no code with snapnet, so a change to snapnet cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.0025
INTERVAL_S = 0.1
MIN_TICKS = 5     # a sample shorter than this many ticks borrows neighbours
_KEYS = 2000


def probe() -> float:
    """Seconds one fixed pure-Python workload takes now.  The collector is
    off meanwhile, so the size of the caller's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = {(i % 97, str(i)): (i * 7919) % 8191 for i in range(_KEYS)}
        heap: list = []
        for key, value in table.items():
            heapq.heappush(heap, (value, key))
        while heap:
            heapq.heappop(heap)
        members = frozenset(table)
        sum(key in members for key in table)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Probes the machine's speed every INTERVAL_S while started."""

    def __init__(self):
        self.at: list = []       # clock() time of each tick
        self.took: list = []     # probe seconds of each tick
        self.spent = 0.0         # seconds spent in the handler so far

    def clock(self) -> float:
        """perf_counter() without the time spent probing.  A tick between
        reading `spent` and the counter would be counted; read again."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.at.append(t0 - self.spent)
        self.took.append(probe())
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Scale to the reference machine speed of a sample from clock()
        time t0 to t1: the median probe of the ticks between them, widened
        to the MIN_TICKS ticks nearest the sample's middle if fewer."""
        at = self.at
        i, j = bisect_left(at, t0), bisect_right(at, t1)
        mid = (t0 + t1) / 2
        while j - i < MIN_TICKS and (i > 0 or j < len(at)):
            if i > 0 and (j == len(at) or mid - at[i - 1] <= at[j] - mid):
                i -= 1
            else:
                j += 1
        return REFERENCE_S / statistics.median(self.took[i:j])
