"""Machine-speed calibration, so that timings from a shared machine compare.

On a machine shared with other jobs the same repeat can take 2x longer
from one minute to the next, and the speed changes within seconds too. So
while a repeat runs, a SIGALRM handler times a tiny fixed pure-Python kernel,
which does not depend on kpq, every few hundredths of a second; the median
of the samples taken around an interval is the machine's speed over it.
Every reported time is scaled to a machine on which the kernel takes
REFERENCE_S:

    reported = measured * (REFERENCE_S / median(kernel samples around it)) ** ELASTICITY

Set-up is scaled by all of its samples; each cell by the samples from
LOCAL_S before it starts to LOCAL_S after it ends, so that a speed change
in the middle of a repeat is charged to the cells it hit.

The measured times are kept next to the scaled ones in the results file.
The scaling assumes a phase slows with the kernel, which holds for
interpreter-bound code. Elimination on large numpy blocks does not follow
the kernel, so the window of acm-quadric is not scaled
(`workloads.SCALED_WINDOW`).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# a typical kernel time on the 2-core Intel Xeon (Python 3.11) the benchmark
# was written on; the constant only sets the scale of the reported times
REFERENCE_S = 0.0008
# how much a scaled phase slows per unit of kernel slow-down: fitted 0.73
# on cli-tables, 0.89 on veronese-grid, 0.97 on witness-grid, 0.9-1.0 in set-up
ELASTICITY = 0.85
SETUP_PERIOD_S = 0.02
WINDOW_PERIOD_S = 0.05
LOCAL_S = 0.5
MIN_LOCAL_SAMPLES = 5


def kernel() -> None:
    acc: dict = {}
    for i in range(2_000):
        key = (i % 97, i % 89)
        acc[key] = (acc.get(key, 0) + i * 31) % 32003


def scale(measured: float, kernel_s: float) -> float:
    """`measured` seconds, in seconds at the reference machine speed.

    `kernel_s` is the median kernel time sampled over the same interval.
    """
    return measured * (REFERENCE_S / kernel_s) ** ELASTICITY


def scale_cells(starts: list[float], latencies: list[float],
                ticks: list[tuple[float, float]]) -> list[float]:
    """Scale each cell by the kernel samples taken around it.

    `ticks` are (time, kernel seconds) pairs in time order, on the clock the
    cells were timed with. A cell with fewer than MIN_LOCAL_SAMPLES samples
    in its neighbourhood uses the MIN_LOCAL_SAMPLES nearest ones.
    """
    times = [t for t, _ in ticks]
    out = []
    for start, latency in zip(starts, latencies):
        lo = bisect.bisect_left(times, start - LOCAL_S)
        hi = bisect.bisect_right(times, start + latency + LOCAL_S)
        while hi - lo < min(MIN_LOCAL_SAMPLES, len(times)):
            if lo > 0 and (hi == len(times) or start - times[lo - 1] < times[hi] - start):
                lo -= 1
            else:
                hi += 1
        out.append(scale(latency, statistics.median(k for _, k in ticks[lo:hi])))
    return out


class Sampler:
    """Samples the kernel's time on a timer, phase by phase.

    `samples[phase]` holds (clock() at the sample, kernel seconds) pairs.

    The handler runs between bytecodes of the main thread, so samples cover
    the whole phase, long cells included. `clock()` leaves out the time
    spent in the handler, so the phases timed with it exclude the sampling.
    """

    def __init__(self):
        self.samples: dict[str, list[tuple[float, float]]] = {}
        self._current: list[tuple[float, float]] = []
        self._busy_s = 0.0
        self._old_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self._busy_s

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self._current.append((start - self._busy_s, took))
        self._busy_s += took

    def phase(self, name: str, period_s: float) -> None:
        """Start sampling into `name` every `period_s`, with one sample now."""
        if self._old_handler is None:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._current = self.samples.setdefault(name, [])
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None
