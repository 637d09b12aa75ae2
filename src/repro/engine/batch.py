"""Streaming batch executor: many solver queries as a resilient service.

Turns solving into a batched service instead of one-off function calls.
The core is a **dependency-aware task graph** (:class:`GraphNode` /
:func:`iter_graph` / :func:`run_graph`): nodes carry ``depends_on``
edges and are dispatched, serially or to a ``multiprocessing`` pool,
the moment their dependencies resolve, so independent chains interleave
freely while ordered work (e.g. the sweep engine's warm-start chains,
where point ``i`` seeds point ``i+1``) stays ordered.  A flat batch of
:class:`BatchTask` records (:func:`iter_batch` / :func:`run_batch`) is
the same graph with no edges, run through the same dispatch loop.  All
of them share:

* **streaming results** — outcomes are yielded as nodes finish, so long
  grids produce output from the first completion instead of the last;
  :func:`iter_batch` restores task order with a small reorder buffer by
  default, and its optional ``max_buffered`` bound is a dispatch window
  so one stalled task cannot grow that buffer without limit;
* **fault isolation** — *every* task failure (infeasible threshold,
  domain violation, crash inside a solver or in the worker hand-off,
  timeout) is captured as a failed outcome with a structured
  :class:`~repro.engine.policy.ErrorKind`; one bad task never aborts a
  mixed batch;
* **retry/timeout policies** — a :class:`~repro.engine.policy.BatchPolicy`
  gives every task a wall-clock budget and bounded retries with
  exponential backoff (transient kinds only: deterministic verdicts
  like infeasibility are never retried);
* **deterministic seeding** — randomised solvers receive a per-task seed
  derived as ``base_seed + task_index``, so results are reproducible and
  *identical* between serial, parallel and streamed runs (a
  machine-checked property);
* **result reuse** — with a :class:`~repro.engine.store.ResultStore`,
  outcomes of deterministic tasks are content-addressed by
  :func:`~repro.engine.store.instance_key` and served from the store on
  repeat queries (zero solver invocations, and no worker pool, on a
  warm grid).

Typical uses: solving a whole experiment grid of random instances, or
sweeping many threshold queries over one instance to trace a frontier
(see :func:`threshold_sweep` and :mod:`repro.analysis.frontier`).
"""

from __future__ import annotations

import heapq
import multiprocessing
import queue as _queue
import time
import warnings
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

from ..algorithms.result import SolverResult
from ..core.application import PipelineApplication
from ..core.platform import Platform
from ..core.serialization import (
    solver_result_from_dict,
    solver_result_to_dict,
)
from ..exceptions import SolverError
from .policy import BatchPolicy, ErrorKind, classify_exception, run_with_timeout
from .registry import get_solver, solve
from .store import ResultStore, instance_key

__all__ = [
    "BatchTask",
    "BatchOutcome",
    "GraphNode",
    "iter_batch",
    "run_batch",
    "iter_graph",
    "run_graph",
    "threshold_sweep",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class BatchTask:
    """One solver invocation inside a batch."""

    solver: str
    application: PipelineApplication
    platform: Platform
    threshold: float | None = None
    opts: Mapping[str, Any] = field(default_factory=dict)
    tag: str = ""


@dataclass(frozen=True)
class BatchOutcome:
    """Result of one :class:`BatchTask`.

    Exactly one of ``result`` and ``error`` is set; a failed task
    additionally carries the structured ``error_kind`` (so aggregators
    branch on an enum, not on exception strings) next to the legacy
    ``error`` string (exception type + message).  The originating
    ``task`` rides along so aggregators (reports, Monte-Carlo
    cross-checks) can reach the instance without tracking the input
    list.
    """

    index: int
    solver: str
    tag: str
    result: SolverResult | None
    error: str | None
    elapsed: float
    task: BatchTask
    error_kind: ErrorKind | None = None
    attempts: int = 1
    cached: bool = False

    @property
    def ok(self) -> bool:
        """True when the task produced a result."""
        return self.result is not None


def _effective_opts(
    task: BatchTask, index: int, base_seed: int | None
) -> dict[str, Any]:
    """Task options with the deterministic per-task seed injected."""
    opts = dict(task.opts)
    if (
        base_seed is not None
        and get_solver(task.solver).seeded
        and "seed" not in opts
    ):
        opts["seed"] = base_seed + index
    return opts


def _execute(
    payload: tuple[int, BatchTask, dict[str, Any], BatchPolicy]
) -> BatchOutcome:
    """Run one task (top-level so multiprocessing can pickle it).

    All failure handling lives here: every exception raised by the
    solver (not just library errors — a ``TypeError`` from bad opts, a
    timeout, any bug) is captured as a failed outcome with its
    :class:`ErrorKind`, and transient kinds are retried per the policy.
    Process-fatal signals (``KeyboardInterrupt``/``SystemExit``)
    propagate.
    """
    index, task, opts, policy = payload
    start = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        result: SolverResult | None = None
        error: str | None = None
        kind: ErrorKind | None = None
        try:
            # through the registry front door, so every dispatch
            # validation (threshold shape, platform domain) applies
            # identically to batched and direct solves
            result = run_with_timeout(
                lambda: solve(
                    task.solver,
                    task.application,
                    task.platform,
                    task.threshold,
                    **opts,
                ),
                policy.timeout,
            )
        except Exception as exc:
            kind = classify_exception(exc)
            error = f"{type(exc).__name__}: {exc}"
            if policy.should_retry(kind, attempt):
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
        return BatchOutcome(
            index=index,
            solver=task.solver,
            tag=task.tag,
            result=result,
            error=error,
            elapsed=time.perf_counter() - start,
            task=task,
            error_kind=kind,
            attempts=attempt,
        )


def _check_threshold_shape(task: BatchTask, label: str) -> None:
    """Reject a task whose threshold does not fit its solver.

    ``label`` names the task in the message (``"batch task 3"``,
    ``"graph node 'a'"``); an unregistered solver raises from the
    registry lookup itself.
    """
    spec = get_solver(task.solver)
    if spec.needs_threshold and task.threshold is None:
        raise SolverError(f"{label} ({task.solver!r}) requires a threshold")
    if not spec.needs_threshold and task.threshold is not None:
        raise SolverError(
            f"{label} ({task.solver!r}) does not take a threshold"
        )


# ----------------------------------------------------------------------
# store codec: BatchOutcome <-> JSON record
# ----------------------------------------------------------------------
def _task_key(
    task: BatchTask, opts: Mapping[str, Any]
) -> str | None:
    """Store key for a task, or None when its outcome is not reusable.

    A cached result must be deterministic to replay: unseeded runs of a
    randomised solver produce a different result every time, so they
    bypass the store entirely (neither looked up nor written — a lookup
    would silently pin one arbitrary draw forever).
    """
    spec = get_solver(task.solver)
    if spec.seeded and "seed" not in opts:
        return None
    return instance_key(
        task.solver,
        task.application,
        task.platform,
        task.threshold,
        opts,
        solver_version=spec.version,
    )


def _outcome_to_record(outcome: BatchOutcome) -> dict[str, Any]:
    return {
        "solver": outcome.solver,
        "solver_version": get_solver(outcome.solver).version,
        "result": (
            solver_result_to_dict(outcome.result)
            if outcome.result is not None
            else None
        ),
        "error": outcome.error,
        "error_kind": (
            outcome.error_kind.value if outcome.error_kind else None
        ),
        "elapsed": outcome.elapsed,
        "attempts": outcome.attempts,
    }


def _outcome_from_record(
    record: Mapping[str, Any], index: int, task: BatchTask
) -> BatchOutcome:
    result = record.get("result")
    kind = record.get("error_kind")
    return BatchOutcome(
        index=index,
        solver=task.solver,
        tag=task.tag,
        result=solver_result_from_dict(result) if result else None,
        error=record.get("error"),
        elapsed=record.get("elapsed", 0.0),
        task=task,
        error_kind=ErrorKind(kind) if kind else None,
        attempts=record.get("attempts", 1),
        cached=True,
    )


def _validated_record(
    record: Mapping[str, Any] | None, task: BatchTask
) -> Mapping[str, Any] | None:
    """Reject a stored record whose solver version is stale.

    The version is part of the store key, so fresh stores never collide
    across versions — but a manually edited or migrated store can serve
    an old-version record under a current key.  Such a record is treated
    as a miss (the task re-solves and overwrites it) with a warning, so
    stale results are never silently replayed.  Records predating the
    version field (PR 2/3 stores) carry no version claim and pass
    unchecked.
    """
    if record is None:
        return None
    stored = record.get("solver_version")
    expected = get_solver(task.solver).version
    if stored is not None and stored != expected:
        warnings.warn(
            f"store record for solver {task.solver!r} carries version "
            f"{stored} but the registered solver is version {expected}; "
            f"ignoring the stale entry and re-solving",
            stacklevel=3,
        )
        return None
    return record


def _storable(outcome: BatchOutcome) -> bool:
    """Only deterministic verdicts are worth persisting.

    Successes and structural failures (infeasible, unsupported, invalid)
    replay identically; timeouts and crashes describe the environment of
    one run and must stay retryable on the next.
    """
    return outcome.ok or (
        outcome.error_kind is not None and outcome.error_kind.deterministic
    )


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def iter_batch(
    tasks: Iterable[BatchTask],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    in_order: bool = True,
    max_buffered: int | None = None,
) -> Iterator[BatchOutcome]:
    """Execute a batch, yielding outcomes as tasks complete.

    The streaming sibling of :func:`run_batch`: the first outcome is
    observable long before the batch finishes, which is what long
    threshold grids and interactive frontends want.  Outcomes are
    *identical* to :func:`run_batch` under the same ``seed`` — only the
    delivery changes.

    A flat batch is a task graph with no edges: task ``i`` becomes the
    dependency-free node ``"i"`` and runs through the dispatch loop of
    :func:`iter_graph` (which see for seeding, fault isolation and store
    reuse), so every semantic here is the graph's.

    Parameters
    ----------
    tasks:
        The queries to run.
    workers:
        ``None``/``0``/``1`` runs in-process, lazily as the consumer
        pulls outcomes; larger values shard the batch over a
        ``multiprocessing`` pool of at most ``workers`` processes.
    seed:
        Base seed for randomised solvers: task ``i`` runs with
        ``seed + i`` (unless its ``opts`` already pin one).  Seeding —
        and therefore every result — is independent of ``workers``.
    policy:
        Per-task :class:`~repro.engine.policy.BatchPolicy` (timeout,
        retries, backoff).  Defaults to no timeout and no retries.
    store:
        Optional :class:`~repro.engine.store.ResultStore`: deterministic
        tasks found in the store are served without invoking the solver
        (``outcome.cached`` is True), new deterministic outcomes are
        written back.  Every task is looked up once before any write,
        and a fully store-warm batch never starts a pool.
    in_order:
        True (default) buffers out-of-order completions and yields in
        task order; False yields in completion order (each outcome still
        carries its ``index``).
    max_buffered:
        Bound on the in-order reorder buffer.  By default completions
        are buffered without limit, so one stalled task lets every
        faster task's outcome pile up in memory while the consumer
        waits.  Setting ``max_buffered`` makes dispatch windowed: task
        ``i`` starts only while ``i`` is at most ``max_buffered`` past
        the lowest unfinished task, so at most ``max_buffered + 1``
        tasks are in flight or buffered at any moment (the ``+1`` is the
        stalled head itself) — consumer-side backpressure at the cost of
        pipeline slack.  Ignored for ``in_order=False`` runs, which
        never buffer.

    Raises
    ------
    repro.exceptions.SolverError
        Immediately (before running anything) if a task names an
        unregistered solver, omits a required threshold, or passes one
        to a solver that takes none — a malformed batch is a
        programming error, unlike a solver failure, which is reported
        per-outcome.
    """
    if max_buffered is not None and max_buffered < 1:
        raise SolverError(
            f"max_buffered must be >= 1 (got {max_buffered})"
        )
    tasks = list(tasks)
    for index, task in enumerate(tasks):
        _check_threshold_shape(task, f"batch task {index}")
    completions = _dispatch(
        [GraphNode(str(index), task) for index, task in enumerate(tasks)],
        workers=workers,
        seed=seed,
        policy=policy or BatchPolicy(),
        store=store,
        window=max_buffered if in_order else None,
    )
    if in_order:
        yield from _in_id_order(completions)
    else:
        for _, outcome in completions:
            yield outcome


def run_batch(
    tasks: Iterable[BatchTask],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
) -> list[BatchOutcome]:
    """Execute a batch of solver tasks, returning outcomes in task order.

    The drained :func:`iter_batch` (which see for the
    ``workers``/``seed``/``policy``/``store`` semantics).
    """
    return list(
        iter_batch(
            tasks, workers=workers, seed=seed, policy=policy, store=store
        )
    )


def threshold_sweep(
    solver: str,
    application: PipelineApplication,
    platform: Platform,
    thresholds: Sequence[float],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    opts: Mapping[str, Any] | None = None,
    warm_start: str = "off",
    shared_cache: bool = True,
) -> list[BatchOutcome]:
    """Run one threshold query per value over a single instance.

    The bread-and-butter frontier workload, now a thin wrapper over the
    sweep engine (:mod:`repro.engine.sweeps`): outcomes are returned in
    threshold order, infeasible thresholds showing up as failed outcomes
    rather than aborting the sweep.  Duplicate thresholds are solved
    once and fanned back out to every grid position; adjacent points
    share pre-computed evaluation terms (``shared_cache``); and
    ``warm_start="chain"`` chains the accepted mapping of each point
    into the next solve on monotone grids (warm-startable solvers
    only).  With a ``store``, re-running a sweep over a previously
    solved grid performs zero new solver invocations.
    """
    from .sweeps import SweepPlan, run_sweep

    plan = SweepPlan.single(
        application,
        platform,
        solver,
        thresholds,
        opts=opts,
        warm_start=warm_start,
        # keep historic threshold_sweep behaviour: every point is a real
        # batch task with honest per-task elapsed/cached metadata (the
        # enumerate-once fast path lives in sweep_frontier's plans)
        one_pass_exhaustive=False,
    )
    result = run_sweep(
        plan,
        workers=workers,
        seed=seed,
        policy=policy,
        store=store,
        shared_cache=shared_cache,
    )
    return list(result.cells[0].outcomes)


# ----------------------------------------------------------------------
# dependency-aware task graph
# ----------------------------------------------------------------------
#: A parent-side hook deriving a node's final task from its dependencies'
#: outcomes: ``resolve(task, deps) -> task`` where ``deps`` maps each
#: dependency name to its :class:`BatchOutcome` (or list of outcomes for
#: multi-outcome runner nodes).  Runs in the parent process immediately
#: before dispatch, so closures (and mutable compiler state) are fine —
#: only the *resolved* task is shipped to workers.
Resolver = Callable[
    [BatchTask, Mapping[str, "BatchOutcome | list[BatchOutcome]"]],
    BatchTask,
]

#: A custom execution function for a node: a **top-level, picklable**
#: callable receiving the standard ``(index, task, opts, policy)``
#: payload and returning one :class:`BatchOutcome` or a list of them
#: (e.g. the sweep engine's exhaustive one-pass runner, which answers a
#: whole threshold grid from a single node).  Runner nodes bypass the
#: result store (the runner owns its own caching semantics) and skip
#: the threshold-shape validation of standard nodes.
Runner = Callable[
    [tuple[int, BatchTask, dict[str, Any], BatchPolicy]],
    "BatchOutcome | list[BatchOutcome]",
]


@dataclass(frozen=True)
class GraphNode:
    """One task inside a dependency-aware graph.

    ``depends_on`` names the nodes whose outcomes must exist before this
    node runs; ``resolve`` (optional) rewrites the task from those
    outcomes right before dispatch — the sweep engine uses it to inject
    the previous chain point's mapping as a warm start.  ``seed_index``
    overrides the index used for deterministic seeding (``base_seed +
    seed_index``); by default the node's position in the input sequence
    is used, but a compiler that wants graph execution to reproduce a
    pre-graph layout's seeds (e.g. per-cell numbering) pins it
    explicitly.  ``runner`` swaps :func:`solve` dispatch for a custom
    picklable payload function (see :data:`Runner`).
    """

    name: str
    task: BatchTask
    depends_on: tuple[str, ...] = ()
    resolve: Resolver | None = None
    seed_index: int | None = None
    runner: Runner | None = None


def _validate_graph(
    nodes: Sequence[GraphNode], on_dep_failure: str
) -> None:
    """Reject malformed graphs before running anything."""
    if on_dep_failure not in ("run", "skip"):
        raise SolverError(
            f"on_dep_failure must be 'run' or 'skip', got {on_dep_failure!r}"
        )
    names: set[str] = set()
    for node in nodes:
        if not node.name:
            raise SolverError("graph nodes need non-empty names")
        if node.name in names:
            raise SolverError(f"duplicate graph node name {node.name!r}")
        names.add(node.name)
    for node in nodes:
        for dep in node.depends_on:
            if dep == node.name:
                raise SolverError(
                    f"graph node {node.name!r} depends on itself"
                )
            if dep not in names:
                raise SolverError(
                    f"graph node {node.name!r} depends on unknown node "
                    f"{dep!r}"
                )
    # Kahn's algorithm: anything left unprocessed sits on a cycle
    remaining = {n.name: len(set(n.depends_on)) for n in nodes}
    children: dict[str, list[str]] = {n.name: [] for n in nodes}
    for node in nodes:
        for dep in set(node.depends_on):
            children[dep].append(node.name)
    ready = [name for name, count in remaining.items() if count == 0]
    seen = 0
    while ready:
        name = ready.pop()
        seen += 1
        for child in children[name]:
            remaining[child] -= 1
            if remaining[child] == 0:
                ready.append(child)
    if seen != len(nodes):
        cyclic = sorted(
            name for name, count in remaining.items() if count > 0
        )
        raise SolverError(
            f"graph has a dependency cycle through {cyclic}"
        )
    # standard nodes go through the registry front door: validate the
    # threshold shape now, exactly like iter_batch does for its tasks
    for node in nodes:
        if node.runner is None:
            _check_threshold_shape(node.task, f"graph node {node.name!r}")


def _failed(outcome: "BatchOutcome | list[BatchOutcome]") -> bool:
    """True when a dependency's outcome(s) contain any failure."""
    if isinstance(outcome, list):
        return any(not o.ok for o in outcome)
    return not outcome.ok


def _cancelled_outcome(
    index: int, task: BatchTask, failed_deps: Sequence[str]
) -> BatchOutcome:
    return BatchOutcome(
        index=index,
        solver=task.solver,
        tag=task.tag,
        result=None,
        error=(
            "Cancelled: dependency failed "
            f"({', '.join(sorted(failed_deps))})"
        ),
        elapsed=0.0,
        task=task,
        error_kind=ErrorKind.CANCELLED,
        attempts=0,
    )


def _in_id_order(pairs: Iterable[tuple[int, _T]]) -> Iterator[_T]:
    """Yield the items of ``(id, item)`` pairs in id order ``0, 1, ...``.

    The ids must be exactly ``0..n-1`` in any arrival order; an item
    that arrives early waits in a buffer until every lower id has been
    yielded.
    """
    buffered: dict[int, _T] = {}
    next_id = 0
    for item_id, item in pairs:
        buffered[item_id] = item
        while next_id in buffered:
            yield buffered.pop(next_id)
            next_id += 1


def _dispatch(
    nodes: list[GraphNode],
    *,
    workers: int | None,
    seed: int | None,
    policy: BatchPolicy,
    store: ResultStore | None,
    on_dep_failure: str = "run",
    initializer: Any = None,
    initargs: tuple = (),
    window: int | None = None,
) -> Iterator[tuple[int, BatchOutcome]]:
    """The one dispatch loop behind :func:`iter_graph` and
    :func:`iter_batch`: run validated ``nodes``, yielding
    ``(node position, outcome)`` in completion order.

    With a ``window``, the node at position ``p`` is dispatched only
    while ``p <= lowest unfinished position + window``.  On an edgeless
    graph that bounds how many completions an in-order consumer has to
    buffer behind a stalled head.
    """
    count = len(nodes)
    if not count:
        return
    position = {node.name: pos for pos, node in enumerate(nodes)}
    children: list[list[int]] = [[] for _ in nodes]
    waiting = [0] * count  # unfinished dependencies per node
    for pos, node in enumerate(nodes):
        deps = set(node.depends_on)
        waiting[pos] = len(deps)
        for dep in deps:
            children[position[dep]].append(pos)
    results: list[BatchOutcome | list[BatchOutcome] | None] = [None] * count
    # ready nodes execute in ascending input position: deterministic
    # serial order, deterministic dispatch order under a pool (an
    # ascending list is already a heap)
    ready = [pos for pos in range(count) if not waiting[pos]]

    def _opts(pos: int, task: BatchTask) -> dict[str, Any]:
        node = nodes[pos]
        index = node.seed_index if node.seed_index is not None else pos
        return _effective_opts(task, index, seed)

    # store keys of probed misses, kept for the write-back of their
    # outcomes (hits and runner nodes are never written)
    keys: dict[int, str] = {}

    def _probe(
        pos: int, task: BatchTask, opts: dict[str, Any]
    ) -> BatchOutcome | None:
        key = _task_key(task, opts)
        if key is None:
            return None
        record = _validated_record(store.get(key), task)
        if record is None:
            keys[pos] = key
            return None
        return _outcome_from_record(record, pos, task)

    # probe the store up front for every node whose key is already known
    # (no resolver, no dependencies): one read pass before any write, so
    # a capped LRU store refreshes all its hits before the first
    # eviction-triggering put can evict a record the graph was about to
    # reuse.  Misses are recorded too (as None): the node was probed
    # once and must not be probed again at dispatch (store stats count
    # one lookup per task)
    prefetched: dict[int, BatchOutcome | None] = {}
    if store is not None:
        for pos, node in enumerate(nodes):
            if (
                node.runner is None
                and node.resolve is None
                and not node.depends_on
            ):
                prefetched[pos] = _probe(pos, node.task, _opts(pos, node.task))

    def _resolve(
        pos: int,
    ) -> (
        tuple[BatchOutcome, None]
        | tuple[None, tuple[int, BatchTask, dict[str, Any], BatchPolicy]]
    ):
        """Either an immediate outcome (store hit, cancellation) or the
        payload to execute."""
        node = nodes[pos]
        task = node.task
        hit = None
        if pos in prefetched:  # dependency-free and already probed once
            hit = prefetched.pop(pos)
        else:
            deps = {dep: results[position[dep]] for dep in node.depends_on}
            failed_deps = [dep for dep, out in deps.items() if _failed(out)]
            if failed_deps and on_dep_failure == "skip":
                return _cancelled_outcome(pos, task, failed_deps), None
            if node.resolve is not None:
                task = node.resolve(task, deps)
            if store is not None and node.runner is None:
                hit = _probe(pos, task, _opts(pos, task))
        if hit is not None:
            return hit, None
        return None, (pos, task, _opts(pos, task), policy)

    parallel = workers is not None and workers > 1
    pool: multiprocessing.pool.Pool | None = None
    done: _queue.SimpleQueue = _queue.SimpleQueue()
    in_flight = finished = lowest = 0
    try:
        while finished < count:
            outcome = None
            while ready and (window is None or ready[0] <= lowest + window):
                pos = heapq.heappop(ready)
                outcome, payload = _resolve(pos)
                if outcome is not None:
                    break
                node = nodes[pos]
                fn = node.runner if node.runner is not None else _execute
                if not parallel:
                    outcome = fn(payload)
                    break
                if pool is None:
                    # sized to the work: never more processes than
                    # nodes left to run
                    pool = multiprocessing.Pool(
                        processes=min(workers, count - finished),
                        initializer=initializer,
                        initargs=initargs,
                    )
                pool.apply_async(
                    fn,
                    (payload,),
                    callback=lambda out, pos=pos: done.put((pos, out, None)),
                    error_callback=lambda exc, pos=pos: done.put(
                        (pos, None, exc)
                    ),
                )
                in_flight += 1
            if outcome is None:
                if not in_flight:  # pragma: no cover - guarded by validation
                    raise SolverError(
                        "graph made no progress (unreachable nodes?)"
                    )
                pos, outcome, exc = done.get()
                in_flight -= 1
                if exc is not None:
                    # the worker function itself failed outside the
                    # solver guard (unpicklable return, runner bug):
                    # report it as a crashed outcome, never a lost node
                    task = nodes[pos].task
                    outcome = BatchOutcome(
                        index=pos,
                        solver=task.solver,
                        tag=task.tag,
                        result=None,
                        error=f"{type(exc).__name__}: {exc}",
                        elapsed=0.0,
                        task=task,
                        error_kind=ErrorKind.CRASH,
                    )
            key = keys.pop(pos, None)
            if key is not None and _storable(outcome):
                store.put(key, _outcome_to_record(outcome))
            results[pos] = outcome
            finished += 1
            for child in children[pos]:
                waiting[child] -= 1
                if not waiting[child]:
                    heapq.heappush(ready, child)
            while lowest < count and results[lowest] is not None:
                lowest += 1
            if isinstance(outcome, list):
                for sub in outcome:
                    yield pos, sub
            else:
                yield pos, outcome
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()


def iter_graph(
    nodes: Iterable[GraphNode],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    on_dep_failure: str = "run",
    initializer: Any = None,
    initargs: tuple = (),
) -> Iterator[tuple[str, BatchOutcome]]:
    """Execute a task graph, yielding ``(node_name, outcome)`` pairs.

    Nodes are dispatched the moment every dependency has completed —
    independent subgraphs interleave freely across the worker pool, so
    a plan of many chains keeps every core busy even though each chain
    is internally sequential.  Yield order is completion order (each
    pair still names its node); multi-outcome runner nodes yield one
    pair per outcome, in the runner's order.  This is the executor's
    one dispatch loop; :func:`iter_batch` runs a flat batch through it
    as a graph with no edges, so every semantic below holds there too:

    * **deterministic seeding** — node ``i`` (or ``seed_index`` when the
      node pins one) runs with ``seed + i`` unless its resolved opts
      already carry a seed; independent of ``workers``;
    * **fault isolation** — failures become failed outcomes, including
      a failure outside the solver guard (e.g. a result that cannot be
      pickled back from a worker), which is an :attr:`ErrorKind.CRASH`
      outcome; with the default ``on_dep_failure="run"`` dependents
      still run (their ``resolve`` hook sees the failure and decides
      what to do — the sweep engine's chains fall back to the last good
      seed), while ``"skip"`` short-circuits dependents of failed nodes
      into synthetic outcomes with :attr:`ErrorKind.CANCELLED`;
    * **store reuse** — nodes whose key is known up front (no
      dependencies, no resolver) are all probed before any write; the
      others probe *after* resolution (a warm-start seed is part of the
      key).  Hits resolve without dispatching, new deterministic
      outcomes are written back, and a fully store-warm graph never
      creates the worker pool at all;
    * **pool** — created lazily on the first real dispatch, with
      ``min(workers, nodes not yet finished)`` processes, each running
      ``initializer(*initargs)`` once before it takes tasks (the sweep
      engine ships its evaluation-term snapshot this way; serial runs
      skip it, as the parent's process state is already live).

    Raises
    ------
    repro.exceptions.SolverError
        Before running anything: duplicate/unknown node names,
        dependency cycles, or threshold-shape violations on standard
        nodes.
    """
    nodes = list(nodes)
    _validate_graph(nodes, on_dep_failure)
    for pos, outcome in _dispatch(
        nodes,
        workers=workers,
        seed=seed,
        policy=policy or BatchPolicy(),
        store=store,
        on_dep_failure=on_dep_failure,
        initializer=initializer,
        initargs=initargs,
    ):
        yield nodes[pos].name, outcome


def run_graph(
    nodes: Iterable[GraphNode],
    *,
    workers: int | None = None,
    seed: int | None = None,
    policy: BatchPolicy | None = None,
    store: ResultStore | None = None,
    on_dep_failure: str = "run",
    initializer: Any = None,
    initargs: tuple = (),
) -> dict[str, BatchOutcome | list[BatchOutcome]]:
    """Execute a task graph, returning ``{node name: outcome(s)}``.

    The drained sibling of :func:`iter_graph` (which see for all
    semantics): multi-outcome runner nodes map to the list of their
    outcomes, every other node to its single :class:`BatchOutcome`.
    """
    nodes = list(nodes)
    collected: dict[str, list[BatchOutcome]] = {}
    for name, outcome in iter_graph(
        nodes,
        workers=workers,
        seed=seed,
        policy=policy,
        store=store,
        on_dep_failure=on_dep_failure,
        initializer=initializer,
        initargs=initargs,
    ):
        collected.setdefault(name, []).append(outcome)
    multi = {n.name for n in nodes if n.runner is not None}
    return {
        name: outcomes if name in multi else outcomes[0]
        for name, outcomes in collected.items()
    }
