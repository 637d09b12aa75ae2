"""Combinatorial enumeration of interval mappings.

These generators power the exhaustive exact solvers (the baselines the
paper's polynomial algorithms and our heuristics are verified against) and
the hypothesis test strategies.  Counts grow fast — interval partitions
are ``2^(n-1)`` and processor assignments are sums over ordered set
partitions — so callers bound ``n`` and ``m`` (the exhaustive solvers
enforce limits).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import combinations
from threading import Lock
from typing import TYPE_CHECKING, Iterator, Sequence

from .mapping import IntervalMapping, StageInterval

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from .application import PipelineApplication
    from .metrics_bulk import MappingBlock
    from .platform import Platform

__all__ = [
    "interval_partitions",
    "allocations_for_partition",
    "enumerate_interval_mappings",
    "enumerate_one_to_one_mappings",
    "count_interval_partitions",
    "allocation_mask_rows",
    "iter_mapping_blocks",
]


def interval_partitions(
    num_stages: int, max_intervals: int | None = None
) -> Iterator[tuple[StageInterval, ...]]:
    """Yield every partition of ``[1..n]`` into consecutive intervals.

    A partition is determined by its set of break positions (after which
    stage a new interval starts); there are ``2^(n-1)`` of them.  With
    ``max_intervals`` set, partitions with more than that many intervals
    are skipped (processor availability bounds ``p <= m``).
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    cut_positions = range(1, num_stages)  # a cut after stage c
    limit = num_stages if max_intervals is None else min(max_intervals, num_stages)
    for p_minus_1 in range(0, limit):
        for cuts in combinations(cut_positions, p_minus_1):
            bounds = [0, *cuts, num_stages]
            yield tuple(
                StageInterval(lo + 1, hi)
                for lo, hi in zip(bounds, bounds[1:])
            )


def count_interval_partitions(num_stages: int, max_intervals: int | None = None) -> int:
    """Number of partitions :func:`interval_partitions` would yield."""
    from math import comb

    limit = num_stages if max_intervals is None else min(max_intervals, num_stages)
    return sum(comb(num_stages - 1, p - 1) for p in range(1, limit + 1))


def allocations_for_partition(
    num_intervals: int,
    processors: Sequence[int],
    *,
    max_replication: int | None = None,
) -> Iterator[tuple[frozenset[int], ...]]:
    """Yield every assignment of disjoint non-empty processor sets.

    Enumerates, for ``p`` intervals over the given processor pool, every
    tuple of pairwise-disjoint non-empty subsets (not necessarily covering
    the pool).  ``max_replication`` caps ``k_j`` to prune the search.
    """
    pool = tuple(sorted(processors))
    if num_intervals < 1:
        raise ValueError(f"num_intervals must be >= 1, got {num_intervals}")

    def rec(
        j: int, remaining: tuple[int, ...]
    ) -> Iterator[tuple[frozenset[int], ...]]:
        if j == num_intervals:
            yield ()
            return
        # the remaining intervals each need >= 1 processor
        needed_later = num_intervals - j - 1
        max_k = len(remaining) - needed_later
        if max_replication is not None:
            max_k = min(max_k, max_replication)
        for k in range(1, max_k + 1):
            for subset in combinations(remaining, k):
                chosen = frozenset(subset)
                rest = tuple(u for u in remaining if u not in chosen)
                for tail in rec(j + 1, rest):
                    yield (chosen, *tail)

    yield from rec(0, pool)


def enumerate_interval_mappings(
    num_stages: int,
    num_processors: int,
    *,
    max_replication: int | None = None,
) -> Iterator[IntervalMapping]:
    """Yield every interval mapping of ``n`` stages on ``m`` processors.

    The complete search space of the paper's optimisation problem
    (Section 2.2): all interval partitions crossed with all disjoint
    replication assignments.  Exponential — use only for small instances.
    """
    processors = tuple(range(1, num_processors + 1))
    for partition in interval_partitions(num_stages, max_intervals=num_processors):
        for allocs in allocations_for_partition(
            len(partition), processors, max_replication=max_replication
        ):
            # both factors are normalised and structurally valid by
            # construction, so skip the constructor's re-validation
            yield IntervalMapping._trusted(partition, allocs)


def allocation_mask_rows(
    num_intervals: int,
    num_processors: int,
    *,
    max_replication: int | None = None,
) -> list[tuple[int, ...]]:
    """All disjoint allocation tuples for ``p`` intervals, as bitmasks.

    Bit ``u-1`` of ``row[j]`` is set iff processor ``u`` replicates
    interval ``j``.  Rows appear in exactly the order
    :func:`allocations_for_partition` yields them over the full pool
    ``1..m`` — the allocation factor of the enumeration order does not
    depend on the partition, which is what lets the blocked producer
    reuse one allocation table across every partition of the same size.
    """
    pool = tuple(range(1, num_processors + 1))
    if num_intervals < 1:
        raise ValueError(f"num_intervals must be >= 1, got {num_intervals}")

    rows: list[tuple[int, ...]] = []

    def rec(j: int, remaining: tuple[int, ...], prefix: tuple[int, ...]) -> None:
        if j == num_intervals:
            rows.append(prefix)
            return
        needed_later = num_intervals - j - 1
        max_k = len(remaining) - needed_later
        if max_replication is not None:
            max_k = min(max_k, max_replication)
        for k in range(1, max_k + 1):
            for subset in combinations(remaining, k):
                mask = 0
                for u in subset:
                    mask |= 1 << (u - 1)
                chosen = set(subset)
                rest = tuple(u for u in remaining if u not in chosen)
                rec(j + 1, rest, prefix + (mask,))

    rec(0, pool, ())
    return rows


#: Bytes of allocation tables :func:`_allocation_table` keeps between
#: sweeps; least recently used tables are dropped past it.
ALLOCATION_TABLE_BYTES = 64 << 20

_allocation_tables: "OrderedDict[tuple[int, int, int | None], np.ndarray]" = (
    OrderedDict()
)
_allocation_tables_lock = Lock()


def _allocation_table(
    num_intervals: int, num_processors: int, max_replication: int | None
) -> "np.ndarray":
    """:func:`allocation_mask_rows` as a read-only ``(rows, m)`` array.

    Columns past ``num_intervals`` are zero.  The table depends only on
    ``(p, m, max_replication)``, not on the instance, so it is memoized
    across sweeps, least recently used first out past
    :data:`ALLOCATION_TABLE_BYTES`.
    """
    import numpy as np

    key = (num_intervals, num_processors, max_replication)
    with _allocation_tables_lock:
        table = _allocation_tables.get(key)
        if table is not None:
            _allocation_tables.move_to_end(key)
            return table
    rows = allocation_mask_rows(
        num_intervals, num_processors, max_replication=max_replication
    )
    table = np.zeros((len(rows), num_processors), dtype=np.int64)
    if rows:
        table[:, :num_intervals] = rows
    table.flags.writeable = False
    if table.nbytes <= ALLOCATION_TABLE_BYTES:
        with _allocation_tables_lock:
            _allocation_tables[key] = table
            retained = sum(t.nbytes for t in _allocation_tables.values())
            while retained > ALLOCATION_TABLE_BYTES:
                _, dropped = _allocation_tables.popitem(last=False)
                retained -= dropped.nbytes
    return table


def iter_mapping_blocks(
    application: "PipelineApplication",
    platform: "Platform",
    *,
    block_size: int = 4096,
    max_replication: int | None = None,
) -> Iterator["MappingBlock"]:
    """Yield the full interval-mapping space as padded numpy blocks.

    Produces the same mappings in the same order as
    :func:`enumerate_interval_mappings` (a machine-checked property), but
    encoded for :class:`repro.core.metrics_bulk.BulkEvaluator`: interval
    end boundaries and allocation bitmasks, zero-padded to
    ``min(n, m)`` columns.  The allocation factor is tiled across every
    partition of the same size ``p`` from a table built once per process
    (:func:`_allocation_table`), so the per-mapping Python cost is
    amortised away — encoding is a few array operations per partition
    instead of object construction per mapping.

    Raises
    ------
    repro.exceptions.SolverError
        When numpy is unavailable (use the scalar enumeration then).
    """
    from ..exceptions import SolverError
    from .metrics_bulk import HAS_NUMPY, MappingBlock

    if not HAS_NUMPY:
        raise SolverError(
            "iter_mapping_blocks requires numpy; fall back to "
            "enumerate_interval_mappings"
        )
    import numpy as np

    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    n = application.num_stages
    m = platform.size
    width = min(n, m)

    pending: list[tuple["np.ndarray", "np.ndarray"]] = []
    pending_rows = 0

    def flush() -> Iterator["MappingBlock"]:
        nonlocal pending, pending_rows
        if not pending:
            return
        ends = np.vstack([e for e, _ in pending])
        masks = np.vstack([a for _, a in pending])
        pending = []
        pending_rows = 0
        yield MappingBlock(
            num_stages=n, num_processors=m, ends=ends, masks=masks
        )

    for partition in interval_partitions(n, max_intervals=m):
        p = len(partition)
        table = _allocation_table(p, m, max_replication)[:, :width]
        if table.shape[0] == 0:
            continue
        ends_row = np.zeros(width, dtype=np.int64)
        ends_row[:p] = [iv.end for iv in partition]
        offset = 0
        total = table.shape[0]
        while offset < total:
            take = min(total - offset, block_size - pending_rows)
            chunk = table[offset : offset + take]
            ends_chunk = np.broadcast_to(ends_row, chunk.shape)
            pending.append((ends_chunk, chunk))
            pending_rows += take
            offset += take
            if pending_rows >= block_size:
                yield from flush()
    yield from flush()


def enumerate_one_to_one_mappings(
    num_stages: int, num_processors: int
) -> Iterator[IntervalMapping]:
    """Yield every one-to-one mapping (stage -> distinct processor).

    ``m! / (m-n)!`` mappings; the Theorem 3 search space.
    """
    from itertools import permutations

    if num_stages > num_processors:
        return
    for perm in permutations(range(1, num_processors + 1), num_stages):
        yield IntervalMapping.one_to_one(perm)
