"""The machine's speed, sampled while a run is timed.

The machine the benchmark runs on is shared: its speed for interpreted
code drifts by tens of percent from one second to the next and between
minutes, as other work comes and goes.  :class:`SpeedSampler` interrupts the
timed run every ``interval`` seconds and times a fixed pure-Python
reference loop; the mean of those samples is the machine's speed during the
run.  :func:`scaled` turns a sampled wall time into seconds at the nominal
speed, where the reference loop takes ``NOMINAL_S``.  The loop is part of the
benchmark, not of the program, so a change to the program moves the scaled
time exactly as it moves the wall time.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List

#: the reference loop's time at the nominal speed, seconds
NOMINAL_S = 0.002


def reference_loop(processes: int = 400) -> None:
    """Heap pushes and pops that resume generators: in small, the
    interpreter work a simulation run consists of."""
    def proc(i):
        t = 0.0
        for k in range(5):
            t += 1.0 + (i * 7 + k) % 3
            yield t

    queue, gens = [], {}
    for i in range(processes):
        gens[i] = proc(i)
        heapq.heappush(queue, (next(gens[i]), i))
    while queue:
        _, i = heapq.heappop(queue)
        try:
            heapq.heappush(queue, (gens[i].send(None), i))
        except StopIteration:
            del gens[i]


class SpeedSampler:
    """Times the reference loop every ``interval`` seconds from a timer
    signal.  The samples touch no program state, so the simulation they
    interrupt runs exactly the same events."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: List[float] = []

    def _sample(self, signum, frame) -> None:
        # A collection triggered inside the sample would charge the
        # program's heap to the machine; it runs later, in program code.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scaled(wall_s: float, samples: List[float], fallback: List[float] = ()) -> float:
    """A wall time sampled by ``samples``, less the samples' own time, in
    nominal seconds.  ``fallback`` gives the speed of an interval too short
    to have been sampled."""
    speed = statistics.fmean(samples or fallback)
    return (wall_s - sum(samples)) * NOMINAL_S / speed
