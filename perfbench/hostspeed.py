"""How fast the host runs Python right now, to put wall times on one scale.

The shared 2-core host this benchmark was tuned on runs Python 1.5-2x
faster or slower every few seconds and drifts by about 25% over minutes.
CPU time moves with wall time, so it is the cores that slow down, not the
scheduling.  A fixed pure-Python loop timed at the same moments as the
measured work slows down with it: per 0.35 s slice of a simulation the
two correlate at 0.76.  So ``wall * speed`` is the time the work would
have taken at the reference speed.  Over 20 s windows of a fixed
simulation, that cut the coefficient of variation from 0.099 to 0.033.

The loop runs none of the program's code, so a change to the program
moves the measured wall time, not the speed it is scaled by.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_N = 5000
#: The loop's time at the reference speed: about its time on the tuning
#: host while busy.  Only ratios of scaled times mean anything.
REF_LOOP_S = 2.0e-4
#: Sampling period of ``Sampler``; each sample costs ~0.2 ms (0.4%).
INTERVAL_S = 0.05
#: Loops in a burst: ~8 ms.
BURST = 40


def loop_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(LOOP_N):
        total += i
    return time.perf_counter() - start


def burst_speed() -> float:
    """Speed now, relative to the reference: median of a burst of loops."""
    return REF_LOOP_S / statistics.median(loop_s() for _ in range(BURST))


class Sampler:
    """Times the loop every ``INTERVAL_S`` of wall time while active.

    SIGALRM runs the loop between the bytecodes of the measured work, in
    its own process, so the samples see the core the work runs on at the
    moments it runs.  Its speed is the mean of the samples' speeds: the
    work done per second, averaged over the interval.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.speeds.append(REF_LOOP_S / loop_s())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        if not self.speeds:  # work shorter than one interval
            return burst_speed()
        return statistics.fmean(self.speeds)
