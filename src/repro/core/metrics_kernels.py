"""Compiled (numba) bulk-evaluation kernels for interval-mapping blocks.

The numpy path of :mod:`repro.core.metrics_bulk` evaluates a block with
a handful of whole-array operations; even after eliminating the 4-D
``send_uv`` temporary the heterogeneous-latency formula (paper eq. (2))
remains memory-bandwidth-bound — every intermediate still streams
``(B, width, m)`` arrays through cache.  This module fuses the whole
per-row computation (input sends, per-interval compute, serialized
inter-interval sends, the max over replicas) into one loop nest per
mapping row, compiled with numba ``@njit(cache=True, parallel=True)``
and parallelised over rows with ``prange``.

Three kernels cover both objectives:

* :func:`heterogeneous_latency_kernel` — eq. (2), fully heterogeneous
  links, one-port and multi-port;
* :func:`uniform_latency_kernel` — eq. (1), communication-homogeneous
  platforms;
* :func:`failure_kernel` — the replica failure products, folded per
  interval in **ascending processor order** (bit-identical to the
  scalar loops and to the remove-highest-bit mask-table DP of
  :func:`repro.core.metrics_bulk.build_mask_tables`), accumulated in
  log space interval by interval like the scalar path.

Numerical contract: same as the numpy path — results agree with the
scalar metrics within
:data:`repro.core.metrics_bulk.BULK_RELATIVE_TOLERANCE`; consumers
confirm every decision through the scalar path, so solver trajectories
are bit-identical across the scalar, numpy and jit backends.

The module imports without numba (and without numpy): :data:`HAS_NUMBA`
is then ``False``, ``@njit`` degrades to an identity decorator and
``prange`` to ``range``, leaving the kernels as plain-Python reference
implementations (exposed as ``*_py`` either way) that the test suite
exercises on every install.  Only math builtins are used inside the
kernels, so the pure-Python forms run against any indexable buffers.
"""

from __future__ import annotations

import math

__all__ = [
    "HAS_NUMBA",
    "heterogeneous_latency_kernel",
    "uniform_latency_kernel",
    "failure_kernel",
    "heterogeneous_latency_py",
    "uniform_latency_py",
    "failure_py",
    "warmup",
]

try:  # pragma: no cover - exercised implicitly on numba-less installs
    from numba import njit, prange
except ImportError:  # pragma: no cover
    njit = None
    prange = range

#: True when numba is importable and the compiled backend is available.
HAS_NUMBA = njit is not None

if not HAS_NUMBA:

    def njit(*args, **kwargs):  # noqa: F811 - deliberate fallback shadow
        """Identity decorator standing in for ``numba.njit``."""
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


@njit(cache=True, parallel=True)
def heterogeneous_latency_kernel(
    ends,
    masks,
    work_prefix,
    volumes,
    speeds,
    links,
    in_bw,
    out_bw,
    input_size,
    one_port,
    out,
):
    """Eq. (2) latency for every row of a padded mapping block.

    ``ends``/``masks`` are the ``(B, width)`` int64 block arrays
    (zero-padded past each row's interval count), ``links`` the
    ``(m, m)`` bandwidth matrix with an infinite diagonal (intra-
    processor hand-offs are free), ``in_bw``/``out_bw`` the source/sink
    bandwidths.  Results land in the preallocated ``out`` (length B).
    """
    num_rows, width = ends.shape
    m = speeds.shape[0]
    for i in prange(num_rows):
        total = 0.0
        # serialized input sends from P_in to interval 1's replicas
        mask0 = masks[i, 0]
        if one_port:
            acc = 0.0
            for u in range(m):
                if mask0 >> u & 1:
                    acc += input_size / in_bw[u]
            total += acc
        else:
            worst_in = -math.inf
            for u in range(m):
                if mask0 >> u & 1:
                    t = input_size / in_bw[u]
                    if t > worst_in:
                        worst_in = t
            total += worst_in
        start = 1
        for j in range(width):
            mask = masks[i, j]
            if mask == 0:
                break
            end = ends[i, j]
            work = work_prefix[end] - work_prefix[start - 1]
            delta = volumes[end]
            next_mask = masks[i, j + 1] if j + 1 < width else 0
            worst = -math.inf
            for u in range(m):
                if not mask >> u & 1:
                    continue
                t = work / speeds[u]
                if next_mask == 0:
                    t += delta / out_bw[u]
                elif one_port:
                    send = 0.0
                    for v in range(m):
                        if next_mask >> v & 1:
                            send += delta / links[u, v]
                    t += send
                else:
                    send = -math.inf
                    for v in range(m):
                        if next_mask >> v & 1:
                            s = delta / links[u, v]
                            if s > send:
                                send = s
                    t += send
                if t > worst:
                    worst = t
            total += worst
            start = end + 1
        out[i] = total


@njit(cache=True, parallel=True)
def uniform_latency_kernel(
    ends,
    masks,
    work_prefix,
    volumes,
    speeds,
    bandwidth,
    final_term,
    one_port,
    out,
):
    """Eq. (1) latency for every row of a padded mapping block.

    ``bandwidth`` is the uniform link bandwidth and ``final_term`` the
    precomputed output transfer ``delta_n / b``.
    """
    num_rows, width = ends.shape
    m = speeds.shape[0]
    for i in prange(num_rows):
        total = final_term
        start = 1
        for j in range(width):
            mask = masks[i, j]
            if mask == 0:
                break
            end = ends[i, j]
            work = work_prefix[end] - work_prefix[start - 1]
            delta_in = volumes[start - 1]
            slowest = math.inf
            replicas = 0
            for u in range(m):
                if mask >> u & 1:
                    replicas += 1
                    if speeds[u] < slowest:
                        slowest = speeds[u]
            k = replicas if one_port else 1
            total += k * delta_in / bandwidth + work / slowest
            start = end + 1
        out[i] = total


@njit(cache=True, parallel=True)
def failure_kernel(masks, fps, out):
    """Replica-product failure probability for every block row.

    Per interval the replica failure product folds in ascending
    processor order (bit-identical to the scalar loop and the mask-table
    DP); the log-reliabilities accumulate left to right over intervals.
    An interval that surely fails (product >= 1) drives the row to 1.0,
    matching :func:`repro.core.metrics.failure_probability`.
    """
    num_rows, width = masks.shape
    m = fps.shape[0]
    for i in prange(num_rows):
        log_success = 0.0
        for j in range(width):
            mask = masks[i, j]
            if mask == 0:
                break
            prod = 1.0
            for u in range(m):
                if mask >> u & 1:
                    prod *= fps[u]
            if prod >= 1.0:
                log_success = -math.inf
            else:
                log_success += math.log1p(-prod)
        out[i] = -math.expm1(log_success)


#: Plain-Python reference forms of the kernels (the undecorated
#: functions), runnable on every install — the equivalence tests pin the
#: kernel logic against the scalar and numpy paths even without numba.
if HAS_NUMBA:
    heterogeneous_latency_py = heterogeneous_latency_kernel.py_func
    uniform_latency_py = uniform_latency_kernel.py_func
    failure_py = failure_kernel.py_func
else:
    heterogeneous_latency_py = heterogeneous_latency_kernel
    uniform_latency_py = uniform_latency_kernel
    failure_py = failure_kernel


def warmup() -> bool:
    """Compile all kernels on a tiny instance; returns ``True`` if it ran.

    ``cache=True`` persists the compiled machine code next to the
    module, so one warm-up per environment amortises the JIT cost for
    every later process (the solve service calls this at startup so
    daemon latency percentiles never eat a mid-request compile).
    No-op without numba.
    """
    if not HAS_NUMBA:
        return False
    import numpy as np

    ends = np.array([[1]], dtype=np.int64)
    masks = np.array([[1]], dtype=np.int64)
    work_prefix = np.array([0.0, 1.0])
    volumes = np.array([1.0, 1.0])
    ones = np.ones(1)
    links = np.full((1, 1), np.inf)
    out = np.empty(1)
    for one_port in (True, False):
        heterogeneous_latency_kernel(
            ends, masks, work_prefix, volumes, ones, links, ones, ones,
            1.0, one_port, out,
        )
        uniform_latency_kernel(
            ends, masks, work_prefix, volumes, ones, 1.0, 1.0, one_port, out
        )
    failure_kernel(masks, ones * 0.5, out)
    return True
