"""Op times at a reference host speed.

The benchmark runs on shared machines whose speed drifts by up to 60% over
seconds to minutes.  Measured with a fixed loop, the drift is per instruction:
CPU time follows wall time.  So that a run measures riskquad and not its
neighbours, a fixed calibration loop that never calls riskquad is timed every
``EVERY_S`` seconds from a timer signal, inside ops as well as between them,
and its time is taken out of the op it interrupted.  Each op's time is then
multiplied by its host factor: the loop's reference time over the median of
its samples taken during the op or within ``WINDOW_S`` of it.  They are then
wall times at the speed at which the loop takes its reference time.  A change
to riskquad moves them in full; a change of host speed mostly does not.

The factor is taken per op, not over the whole run, because the speed drifts
within a run: one run-wide factor left ``op_p50_ms`` of calculus_large
spread 0.22 over five runs of the same inputs, as the median op moved between
op classes 20% apart in time; the per-op factor left 0.09.  The run-wide
factor (``factor``) is still printed, and flags a run far from the reference
speed.

The drift depends on the instruction mix, and no one loop tracks every
workload.  So two loops of different mix take turns on the timer, and the
factor is the geometric mean of theirs, weighted 0.3 (``dispatch``) to 0.7
(``bulk``).  The weight comes from timing both loops side by side with fixed
ops of each workload, over two stretches of seven and eight minutes, in
windows of about 8 s.  The s.d. of log op time left after scaling, the larger
of the two stretches, was:

    op of            mixed  dispatch  bulk   unscaled
    calculus_small   0.060  0.077     0.074  0.116
    calculus_large   0.056  0.104     0.058  0.090
    lp               0.080  0.106     0.088  0.121
    descent (long)   0.071  0.087     0.086  0.127
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

EVERY_S = 0.25
# samples this close to an op count towards its factor: about eight for a
# short op.  Over four or five runs of each workload, the largest spread of
# a time metric was 0.14 with 1 s, 0.17 with 0.5 s and 0.16 with 2 s
WINDOW_S = 1.0
# the run factors seen over the ten-seed sets (every workload) the bounds in
# BENCHMARK.json were derived on: seeds 401-420 and 501-530, with one factor
# per run, and seeds 101-110, with a factor per op (0.995-1.106); a run
# outside this range is flagged, as its scaled times may be off by more than
# the bounds
FACTOR_RANGE = (0.89, 1.53)


def _dispatch_loop() -> float:
    """Many small numpy calls from the interpreter: call overhead dominates."""
    a = np.linspace(0.0, 1.0, 32)
    s = 0.0
    for i in range(1500):
        s += float(np.dot(np.sort(a + i), a)) + (i * i) % 7
    return s


_BULK = np.random.default_rng(0).standard_normal(4096)


def _bulk_loop() -> float:
    """Few numpy calls on 4096-element arrays: sorting and scans dominate."""
    s = 0.0
    for i in range(160):
        b = np.sort(_BULK + i)
        s += float(np.cumsum(b)[np.searchsorted(b, 0.0)])
    return s


# each loop, its median wall time on a 2-core host with Python 3.11.7 and
# numpy 2.4.6 (the reference host speed) and its weight in the factor
LOOPS = ((_dispatch_loop, 0.0087, 0.3), (_bulk_loop, 0.00927, 0.7))


def sample(loop, clock=time.perf_counter) -> float:
    t0 = clock()
    loop()
    return clock() - t0


def spot_factor(clock=time.perf_counter, n: int = 4) -> float:
    """The factor of ``n`` samples of each loop taken now, for a span too
    short to hold timer samples of its own (a set-up)."""
    f = 1.0
    for loop, ref_s, weight in LOOPS:
        f *= (ref_s / statistics.median(sample(loop, clock) for _ in range(n))) ** weight
    return f


class HostSpeed:
    """Samples the calibration loops in turn on SIGALRM while active.

    ``spent`` is the wall time the samples took, to be taken out of the op
    they interrupted; ``factor`` scales the remaining raw op times.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[list[float]] = [[] for _ in LOOPS]
        self.starts: list[list[float]] = [[] for _ in LOOPS]
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        i = sum(map(len, self.samples)) % len(LOOPS)
        self.starts[i].append(self.clock())
        d = sample(LOOPS[i][0], self.clock)
        self.samples[i].append(d)
        self.spent += d

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """The factor over the whole run."""
        f = 1.0
        for (loop, ref_s, weight), samples in zip(LOOPS, self.samples):
            f *= (ref_s / statistics.median(samples or [sample(loop, self.clock)])) ** weight
        return f

    def factor_over(self, t0: float, t1: float) -> float:
        """The factor of the samples started in [t0 - WINDOW_S, t1 + WINDOW_S],
        per loop; a loop with none there uses all of its samples."""
        f = 1.0
        for (loop, ref_s, weight), starts, samples in zip(LOOPS, self.starts, self.samples):
            lo = bisect.bisect_left(starts, t0 - WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + WINDOW_S)
            near = samples[lo:hi] or samples or [sample(loop, self.clock)]
            f *= (ref_s / statistics.median(near)) ** weight
        return f
