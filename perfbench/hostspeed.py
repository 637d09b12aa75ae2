"""How fast the host runs right now, measured with fixed computations.

On the shared 2-core host the benchmark was defined on, the speed of
the whole machine changed by up to 1.9x within a minute, with no CPU
steal and CPU time equal to wall time: one simulation took 0.60 s,
then 0.86 s for half a minute, then 0.48 s.  No estimator over one
run's wall times removes that, because a run is shorter than the slow
periods.  Fixed reference computations slow down with the host, so the
benchmark samples their slowdown between its operations and divides
each operation's wall time by the mean of the samples right before and
right after it: the result is the operation's time at the reference
speed.  The speed also flickered within tens of milliseconds, so a
single sample is noisy; the workloads average over many operations.

There are two references, because interpreter-bound code and numpy
array code did not slow down alike: an interpreter loop (dict, heap
and float work, as in the discrete-event loop and the scalar
evaluations) and numpy operations on a 4096-row block (as in bulk
block evaluation).  A workload weighs them by the share of its time
spent in each kind of code.  Neither uses anything from ``repro``, so
a change to the program cannot change them.

The CPUs of that host did not run at one speed either: at times the
references ran 1.8x slower on one CPU than on the other.  A workload
that computes in the sampling thread itself samples on the CPU that
thread runs on, which is the one its operations ran on; a workload
whose work runs in other processes (pool workers, the daemon) times
the references on every CPU the process may use, one after the other,
and averages them.
"""

from __future__ import annotations

import heapq
import os
import statistics
import time

import numpy as np

#: seconds one repeat of each reference took on the 2-core x86-64 host
#: the benchmark was defined on; they only set the scale of the
#: rescaled figures, so change them only in a change of their own
REFERENCE_LOOP_S = 0.0020
REFERENCE_ARRAY_S = 0.0023

#: repeats per CPU and sample; a sample takes their median, so a
#: short stall during one repeat does not move it
REPEATS = 7

_rng = np.random.default_rng(20080101)
_BLOCK = _rng.random((4096, 6, 6))
_WEIGHTS = _rng.random((6, 6))


def _loop() -> float:
    start = time.perf_counter()
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    acc = 0.5
    for i in range(3000):
        key = (i * 7919) & 255
        acc = (acc + table.get(key, 0.25) * 1.000001) % 97.0
        table[key] = acc
        heapq.heappush(heap, (acc % 13.0, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _array() -> float:
    start = time.perf_counter()
    loads = (_BLOCK * _WEIGHTS).max(axis=2)
    survive = np.cumprod(1.0 - 0.01 * _BLOCK[:, :, 0], axis=1)
    np.minimum(loads, survive).argmin(axis=1)
    return time.perf_counter() - start


def _slowdown(loop_share: float) -> float:
    loop = statistics.median(_loop() for _ in range(REPEATS))
    array = statistics.median(_array() for _ in range(REPEATS))
    return (loop_share * loop / REFERENCE_LOOP_S
            + (1.0 - loop_share) * array / REFERENCE_ARRAY_S)


def sample(loop_share: float, every_cpu: bool = False) -> float:
    """The host's slowdown now, against the reference times.

    ``loop_share`` is the weight of the interpreter loop, the rest that
    of the array reference.  With ``every_cpu`` the calling thread
    visits each CPU it may use and returns to its own affinity;
    otherwise it samples where it runs.
    """
    if not every_cpu:
        return _slowdown(loop_share)
    cpus = os.sched_getaffinity(0)
    slowdowns = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            slowdowns.append(_slowdown(loop_share))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(slowdowns)


def rescale(wall: float, before: float, after: float) -> float:
    """``wall`` seconds at the reference speed, given the slowdowns
    sampled right before and right after the timed operation."""
    return wall / ((before + after) / 2.0)
