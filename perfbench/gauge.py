"""Machine-speed gauge: fixed work, timed between the benchmark's timed calls.

The 2-vCPU Intel Xeon VM the benchmark was built on switches between speeds
up to 1.7x apart, for a fraction of a second up to a minute, whatever the
benchmark does. Raw medians of 35 s runs then spread by 30-50% from run to
run, more than any useful regression bound. So the benchmark samples this
gauge around and inside every timed block (one set-up, one pass, one group of
latency feeds) and multiplies the block's times by ``REF_S`` over the mean
of the block's samples: the figures read as seconds on that host at its
typical speed. Inside a block a sample is taken between two timed calls, at
most every TICK_S, and its time is left out of the block's timing. A change
to portcall cannot move the gauge; a slow stretch of the machine moves the
gauge and the block together. A sample beside a second thread would time the
interpreter lock, and a two-thread pass depends on both vCPUs, so its
brackets misled (over ten seeds they spread batch-large's pass_s to 18%,
against 5% unadjusted); such a pass is scaled by the mean of all the run's
samples instead. The unadjusted figures are kept in the run's record.

The work mixes what portcall's hot path does: numpy calls on tiny arrays (the
per-node distance checks of the ball-tree walk) and interpreted float math
over a small point set (the re-rank and the leaf scans). Either part alone
tracked one workload well and the other badly.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# A typical sample's time on that host. Fixed: changing it rescales every
# adjusted figure.
REF_S = 0.013
TICK_S = 0.1  # the least time between samples inside a block

_rng = np.random.default_rng(0)
_VEC = _rng.random(16)
_PTS = _rng.random((64, 3))
_PTS_LIST = [tuple(p) for p in _PTS.tolist()]
_Q = (0.5, 0.25, 0.75)
_Q_ARR = np.array(_Q)


def _work() -> float:
    acc = 0.0
    for _ in range(3000):
        acc += float(np.sqrt((_VEC * _VEC).sum()))
    qx, qy, qz = _Q
    for _ in range(120):
        d = ((_PTS - _Q_ARR) ** 2).sum(axis=1)
        acc += float(d[int(np.argmin(d))])
        for x, y, z in _PTS_LIST:
            acc += math.sqrt((x - qx) ** 2 + (y - qy) ** 2 + (z - qz) ** 2)
    return acc


def sample() -> float:
    """Seconds taken by one run of the fixed work."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Gauge:
    """Scale factors for consecutive timed blocks."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._start = 0  # the sample that opened the current block
        self._last = 0.0  # when the last sample ended
        self._sample()

    def _sample(self) -> float:
        t = sample()
        self.samples.append(t)
        self._last = time.perf_counter()
        return t

    def tick(self) -> float:
        """Sample inside a block if TICK_S has passed since the last sample,
        between two of the block's timed calls; returns the seconds spent,
        which the caller takes out of the block's time."""
        if time.perf_counter() - self._last < TICK_S:
            return 0.0
        t0 = time.perf_counter()
        self._sample()
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Close the block with a sample; its factor is ``REF_S`` over the
        mean of the samples from the block's opening one to this one."""
        self._sample()
        block = self.samples[self._start:]
        self._start = len(self.samples) - 1
        return REF_S / statistics.fmean(block)

    def run_scale(self) -> float:
        """The factor for a block the gauge cannot follow: ``REF_S`` over the
        mean of every sample so far."""
        return REF_S / statistics.fmean(self.samples)
