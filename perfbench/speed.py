"""Host-speed probe, so that timings cancel a shared host's drift.

On a few cores of a shared host, the speed of the same code drifts by
20-50% over seconds to minutes with the load of neighbours on the same
physical cores, and wall and CPU time drift alike.  While a workload
runs, ``SpeedProbe`` times a small fixed kernel at a fixed period of wall
time, and so samples the host's speed v(t) = ref_s / kernel time
uniformly in time.  Over an interval of wall time T, the work done in
reference seconds (seconds at the speed where the kernel takes ref_s) is
the integral of v(t) dt, estimated as T * mean(v) over the samples in
the interval.

The interpreter kernel, INTERP, normalizes set-up everywhere and the
measured runs of enum-regular9 and query-mix.  It is written in the
style of tourney's hot paths: a recursive search in a closure over
bitmask rows, with list comprehensions, list and tuple building, and
``min``.  On the baseline host it was timed in
alternation with ``canonical_form`` and with query-mix items, in
3-second windows over 100 s.  Both correlated with it at 0.98-0.99, and
their log-log slope against it was 0.92-0.96.  Normalized by it, their
spread across the windows fell from 13-15% raw to about 3%.  A tight
arithmetic loop correlated as well but under-reacted: the workloads
slowed 1.2-1.5 times as much in log terms.

The order-7 sweep is mostly large numpy batches, which hardly follow the
interpreter kernel (log-log slope 0.2-0.35) and widened their spread when
normalized by it.  So ``sweep7`` is normalized by ``ArrayKernel``
instead: one 16,384-code batch of the sweep's own array steps in
preallocated buffers.  Against a full 65,536-code batch it correlated at
0.8 with a slope of 0.9, and normalized by it the batch's spread across
3-second windows fell from 9% to under 5%.  It takes about 35 ms, so it
runs every 0.5 s; smaller batches tracked the sweep less well.

The probe's own time is taken out of every timing, and its buffers out
of the peak memory.  The kernels do not call tourney, so a change to the
program shows in full.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

_rng = random.Random(7)
_ROWS = [_rng.getrandbits(10) & ~(1 << i) for i in range(10)]


def _interp_kernel() -> tuple[int, int, int]:
    """Walks of four vertices in a fixed 10-vertex digraph, at most three
    branches a step; returns the least (start, end, out-degree) found."""
    found = []

    def walk(path: list[int], seen: int) -> None:
        row = _ROWS[path[-1]]
        nxt = [w for w in range(10) if (row >> w) & 1 and not (seen >> w) & 1]
        if len(path) == 4:
            found.append((path[0], path[-1], len(nxt)))
            return
        for w in nxt[:3]:
            walk(path + [w], seen | (1 << w))

    for s in range(10):
        walk([s], 1 << s)
    return min(found)


class ArrayKernel:
    """One batch of extremal's order-7 sweep: adjacency from code bits,
    two batched matmuls, and the closed 5-walk sum, in buffers allocated
    (and touched) once."""

    BATCH = 16_384

    def __init__(self) -> None:
        import numpy as np
        n = 7
        self.edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.shifts = np.arange(len(self.edges), dtype=np.int64)
        self.codes = np.arange(123_456, 123_456 + self.BATCH, dtype=np.int64)
        self.bits = np.empty((self.BATCH, len(self.edges)), dtype=np.int64)
        self.adj = np.zeros((self.BATCH, n, n), dtype=np.int64)
        self.sq = np.empty_like(self.adj)
        self.fourth = np.empty_like(self.adj)
        self.nbytes = sum(a.nbytes for a in (
            self.codes, self.bits, self.adj, self.sq, self.fourth))
        self()

    def __call__(self) -> None:
        import numpy as np
        np.right_shift(self.codes[:, None], self.shifts, out=self.bits)
        np.bitwise_and(self.bits, 1, out=self.bits)
        adj, bits = self.adj, self.bits
        for k, (i, j) in enumerate(self.edges):
            adj[:, i, j] = bits[:, k]
            np.subtract(1, bits[:, k], out=adj[:, j, i])
        np.matmul(adj, adj, out=self.sq)
        np.matmul(self.sq, self.sq, out=self.fourth)
        np.multiply(self.fourth, np.swapaxes(adj, 1, 2), out=self.sq)
        self.sq.sum(axis=(1, 2))


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], object]
    ref_s: float     # its median time on the baseline host (README.md), so
    period_s: float  # that normalized times read close to raw ones there
    nbytes: int = 0  # memory it holds for the whole run


INTERP = Kernel(_interp_kernel, ref_s=0.0007, period_s=0.05)


def run_kernel(workload: str) -> Kernel:
    """The kernel that normalizes ``workload``'s measured run."""
    if workload == "sweep7":
        array = ArrayKernel()
        return Kernel(array, ref_s=0.035, period_s=0.5, nbytes=array.nbytes)
    return INTERP


class SpeedProbe:
    """Samples the host's speed every ``kernel.period_s`` seconds of wall
    time from a SIGALRM handler, which Python runs in the main thread
    between bytecodes.  ``wall`` and ``cpu`` are the probe's own time so
    far; subtract their growth over an interval from its timings."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.times: list[float] = []   # perf_counter() at each sample
        self.speeds: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def _sample(self, *_: object) -> None:
        w0 = time.perf_counter()
        c0 = time.process_time()
        self.kernel.run()
        self.speeds.append(self.kernel.ref_s / (time.perf_counter() - w0))
        self.times.append(w0)
        self.wall += time.perf_counter() - w0
        self.cpu += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        period = self.kernel.period_s
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean speed of the samples taken from t0 to t1 (perf_counter
        times); the nearest sample's when there is none."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return statistics.fmean(self.speeds[lo:hi])
        if not self.times:
            self._sample()
        near = min(range(max(lo - 1, 0), min(lo + 1, len(self.times))),
                   key=lambda k: abs(self.times[k] - t0))
        return self.speeds[near]
