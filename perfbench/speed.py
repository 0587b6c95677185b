"""Stage clocks: wall time, or wall time scaled by a machine-speed probe.

The host the benchmark was tuned on (2 shared vCPUs) changes speed by up to
1.5x in phases that last from seconds to minutes, so raw wall times of the
same work spread by about 20% from run to run.  ``SpeedClock`` times a fixed
probe kernel before the first stage, after every stage, and every
``PROBE_EVERY_S`` inside a stage (from a SIGALRM handler, which Python runs
between bytecodes of the main thread).  A stage's scaled time is its wall
time less the probes inside it, times ``PROBE_REF_S`` over the typical
probe time around it: the interquartile mean of the two probes before it,
the probes inside it and the one after it, so that one probe slowed by a
hiccup does not skew a short stage.  It reads as the stage's seconds on
a machine where the probe takes ``PROBE_REF_S``.  The probe is benchmark
code, not efem code, so a faster or slower efem moves scaled times exactly
as it moves wall times.

The probe mixes what efem spends its time on: an interpreted loop, small
numpy calls in a loop, and a memory-bound pass over an 8 MB array.  No
part alone tracked efem's stages better than the three together.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.008     # scaled time = wall time * PROBE_REF_S / probe time
PROBE_EVERY_S = 0.25    # probe period inside a stage

# The probe's arrays are made once, so that a probe run inside a stage
# allocates no array memory and leaves the process's peak memory alone.
_BIG = np.random.default_rng(0).random(1_000_000)
_EYE = np.eye(3)
_V = np.ones(3)
_W = np.empty(3)


def probe_kernel() -> float:
    s = 0
    for i in range(60000):
        s += i * i
    for _ in range(1500):
        np.matmul(_EYE, _V, out=_W)
    for _ in range(4):
        s += float(_BIG.sum())
    return s


def interquartile_mean(values) -> float:
    """Mean of the middle half of three or more values; the median of three."""
    v = sorted(values)
    k = max(1, len(v) // 4)
    return sum(v[k:len(v) - k]) / (len(v) - 2 * k)


class WallClock:
    """Times stages in wall seconds; its scaled time is the wall time."""

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0

    def reset(self):
        self.wall = self.scaled = 0.0

    @contextmanager
    def stage(self):
        t0 = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - t0
            self.wall += wall
            self.scaled += wall


class SpeedClock(WallClock):
    """Times stages in wall seconds and in probe-scaled seconds.

    ``wall`` excludes the probes run inside a stage.  Probe times go into a
    preallocated array: the SIGALRM handler keeps no new Python object
    alive, since one left at a random point of a stage can hold a whole
    allocator arena and move the peak memory the benchmark reports.
    """

    def __init__(self):
        super().__init__()
        self._times = np.empty(4096)
        self._n = 0
        self._stage_start = 0
        self._probe()
        self._probe()

    @property
    def probes(self) -> np.ndarray:
        """Every probe time so far, in order."""
        return self._times[:self._n]

    def _probe(self):
        if self._n == self._times.size:
            self._times = np.concatenate([self._times, np.empty_like(self._times)])
        t0 = perf_counter()
        probe_kernel()
        self._times[self._n] = perf_counter() - t0
        self._n += 1

    def _on_alarm(self, signum, frame):
        self._probe()

    @contextmanager
    def stage(self):
        first = self._n                 # probes before it: first-2 and first-1
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            # a probe inside the stage is timed by the probe and by the stage
            wall -= float(self._times[first:self._n].sum())
            self._probe()
            probe_s = interquartile_mean(self._times[first - 2:self._n].tolist())
            self.wall += wall
            self.scaled += wall * PROBE_REF_S / probe_s
