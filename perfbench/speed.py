"""The host's speed, sampled while a worker sets up and runs its batches.

The host this runs on is shared: identical Python code runs up to ~1.8x
slower at times, in CPU time as well as wall time, and the speed changes
within a second.  So while a worker sets up and runs untraced batches, a
SIGALRM every EVERY_S of wall time runs a fixed pure-Python loop, which
shares no code with ranklab, and records how long it took.  A task's time at
reference speed is its wall time, less the sampling inside it, times REF_S
over the median loop time sampled while it ran (the median, because a
sample that lands on a burst of interference reads far slower than the
speed the task ran at for the rest of that time).  A change to ranklab changes
the task times and not the loop, so it moves these figures in full; only the
host's speed is divided out.  Sampling costs about 1% of the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 3000
EVERY_S = 0.02
# A task shorter than this many samples is scaled by the latest ones.
MIN_SAMPLES = 5
# The loop's fastest time, run back to back on an Intel Xeon vCPU with
# Python 3.11.7: the speed that times are given at.
REF_S = 0.00016


def _loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class Sampler:
    def __init__(self):
        self.times: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.times.append(_loop()))
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        return len(self.times)

    def speed(self, mark: int) -> float:
        """REF_S over the median loop time sampled since mark (at least the
        latest MIN_SAMPLES samples; loops are run here if there are fewer)."""
        while len(self.times) < MIN_SAMPLES:
            self.times.append(_loop())
        window = self.times[min(mark, len(self.times) - MIN_SAMPLES):]
        return REF_S / statistics.median(window)

    def sampling_s(self, mark: int, end: int) -> float:
        """Seconds spent sampling between two marks."""
        return sum(self.times[mark:end])

    def at_ref_speed(self, wall: float, mark: int) -> float:
        """wall seconds that began at mark and end now, less the sampling
        inside them, at reference speed."""
        end = self.mark()
        return (wall - self.sampling_s(mark, end)) * self.speed(mark)
