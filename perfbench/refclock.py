"""Reference clock: how fast this machine runs a fixed Python kernel right now.

Shared virtual machines change speed by up to 2x over tens of seconds, so raw wall
times of the same work differ by 15-25% between runs. The benchmark samples
a fixed kernel (exact Fraction sums, the kind of work helixkit does) for a
set share of the time it measures, interleaved with that work, and scales
its times to a machine that runs the kernel REFERENCE_RATE times a second.
The kernel runs with the garbage collector off, so the measured program's
heap does not change its speed.

The speed also moves within seconds, so each op's time is best scaled by
the speed of the samples taken within a second or so of it
(``local_speeds``); the speed over a whole run (``speed``) is reported
beside it.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

REFERENCE_RATE = 2000.0  # kernel runs per second on the reference machine


def _kernel() -> Fraction:
    s = Fraction(0)
    for k in range(1, 120):
        s += Fraction(1, k)
    return s


class ReferenceClock:
    def __init__(self):
        self.runs = 0
        self.seconds = 0.0
        self.samples: list[tuple[float, int, float]] = []  # (end, runs, seconds)

    def sample(self, seconds: float) -> None:
        """Run the kernel for about `seconds` (at least once)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            runs = 0
            while True:
                _kernel()
                runs += 1
                spent = perf_counter() - t0
                if spent >= seconds:
                    break
        finally:
            if was_enabled:
                gc.enable()
        self.runs += runs
        self.seconds += spent
        self.samples.append((t0 + spent, runs, spent))

    def speed(self) -> float:
        """Machine speed relative to the reference machine (1.0 = same)."""
        return self.runs / self.seconds / REFERENCE_RATE

    def local_speeds(self, window: float) -> list[float]:
        """For each sample in turn, the speed over all samples that ended
        within `window` seconds of it."""
        ends = [end for end, _, _ in self.samples]
        runs = list(accumulate((r for _, r, _ in self.samples), initial=0))
        secs = list(accumulate((s for _, _, s in self.samples), initial=0.0))
        out = []
        for end in ends:
            lo, hi = bisect_left(ends, end - window), bisect_right(ends, end + window)
            out.append((runs[hi] - runs[lo]) / (secs[hi] - secs[lo]) / REFERENCE_RATE)
        return out
