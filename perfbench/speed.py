"""CPU speed read from inside the worker process.

The machine the benchmark runs on changes speed from one second to the
next, by up to a factor of two, for reasons outside the benchmark. A
command's wall time is therefore read against probe(), a fixed bit of work
timed around the command and, on a timer signal, during it; run.py scales
each time by CAL_REF / cal.
"""

import signal
import time
from fractions import Fraction
from itertools import permutations


def probe() -> float:
    """Seconds taken by a fixed bit of pure-Python work that uses no upqgrowth.

    About 0.5 ms of what the library spends its time on: Fraction
    arithmetic, sorting, and many short tuples built and dropped into a set,
    which is how shapes._chunkings spends its time. Commands of the second
    kind speed up and slow down less than those of the first, so the probe
    holds some of each.
    """
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 7, i % 11 + 1)
    sorted(set(permutations((1, 2, 3, 4, 5))))
    for _ in range(2):
        set(permutations((1, 1, 1, 1, 2, 3)))
    return time.perf_counter() - t0


class Speedometer:
    """Samples probe() EDGE times before and after a command and, on a timer
    signal, every INTERVAL seconds during it.

    cal() is the mean sample; `inside` is the time the samples took within
    the command, which the command's time must not include.
    """

    INTERVAL = 0.01
    EDGE = 5

    def __init__(self):
        self.samples, self.inside = [], 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.inside += time.perf_counter() - t0

    def __enter__(self):
        self.samples = [probe() for _ in range(self.EDGE)]
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [probe() for _ in range(self.EDGE)]

    def cal(self) -> float:
        return sum(self.samples) / len(self.samples)
