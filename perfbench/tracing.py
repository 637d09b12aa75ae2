"""Span tracing for the benchmark's traced run, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install`
replaces the public functions and methods at each layer boundary with
timing wrappers:

* a class method is wrapped on its class, so every instance sees it;
* a module function is wrapped in every ``repro`` module namespace
  that holds it (``from x import f`` binds a second name, and the
  caller looks up its own binding).

Every wrapped call pushes a frame on a per-thread stack.  When it
returns, its duration is added to the call counts and busy time of its
name, its *self* time (duration minus the time of the wrapped calls it
made) to its layer, and its duration to its parent's child time.
Coarse boundaries also keep a span record ``(id, parent, name, start,
end)`` in memory; hot, fine-grained calls (scalar formulas, the event
loop step, bulk blocks) only count, so tracing them stays affordable.

Processes: pool workers are forked from a traced parent and later
terminated, so a worker writes its state to ``<pid>.json`` in the
trace directory after every top-level call returns.  The daemon
launcher calls :meth:`Tracer.dump` once its drain completes.
:func:`load` merges every file in a directory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import types
from typing import Any, Callable

#: modules whose namespaces are searched for bindings of wrapped
#: functions (importing them all first makes every binding exist)
MODULES = (
    "repro.api",
    "repro.cli",
    "repro.core",
    "repro.core.metrics",
    "repro.core.metrics_bulk",
    "repro.core.enumeration",
    "repro.engine.batch",
    "repro.engine.registry",
    "repro.engine.store",
    "repro.engine.sweeps",
    "repro.algorithms.heuristics.annealing",
    "repro.algorithms.heuristics.greedy",
    "repro.algorithms.heuristics.local_search",
    "repro.algorithms.heuristics.single_interval",
    "repro.algorithms.bicriteria.exhaustive",
    "repro.service.server",
    "repro.simulation.dynamic",
    "repro.simulation.kernel",
)

#: solvers whose scalar evaluations count as confirmations of bulk rows
HEURISTICS = ("greedy-min-fp", "local-search-min-fp", "anneal-min-fp")


def layer_of(name: str) -> str:
    """The layer a wrapped name belongs to: the text before its first dot."""
    return name.split(".", 1)[0]


class Tracer:
    """Per-process span and counter state (see the module docstring)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        # a fork may copy the lock held, and the parent's open frames
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int, str, int, int]] = []
        #: name -> [calls, busy_ns]
        self.calls: dict[str, list[int]] = {}
        #: layer -> self time in ns
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, float] = {}

    # -- frames ------------------------------------------------------
    def _caches(self) -> list[Any]:
        caches = getattr(self._local, "caches", None)
        if caches is None:
            caches = self._local.caches = []
        return caches

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self) -> str | None:
        """Name of the innermost open frame of this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def enter(self, name: str) -> list[Any]:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), name, parent, time.perf_counter_ns(), 0]
        stack.append(frame)
        return frame

    def exit(self, frame: list[Any], record: bool) -> int:
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        span_id, name, parent, start, child_ns = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        with self._lock:
            entry = self.calls.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += duration
            layer = layer_of(name)
            self.self_ns[layer] = (
                self.self_ns.get(layer, 0) + duration - child_ns
            )
            if record:
                self.spans.append((span_id, parent, name, start, end))
        if not stack and self.pid != self.root_pid:
            self.dump()
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- evaluation-cache statistics -----------------------------------
    def track_cache(self, cache: Any) -> None:
        self._caches().append(cache)

    def harvest_caches(self) -> None:
        """Fold the hit/miss counts of this thread's caches into the
        counters (called when a solve returns, so they are finished)."""
        caches = self._caches()
        while caches:
            cache = caches.pop()
            stats = cache.stats
            self.count("cache.hits", stats["hits"])
            self.count("cache.misses", stats["misses"])

    # -- output --------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        self.harvest_caches()
        with self._lock:
            return {
                "pid": self.pid,
                "calls": {k: list(v) for k, v in self.calls.items()},
                "self_ns": dict(self.self_ns),
                "counters": dict(self.counters),
                "spans": list(self.spans),
            }

    def dump(self) -> None:
        """Write this process's state to ``<out_dir>/<pid>.json``."""
        path = os.path.join(self.out_dir, f"{self.pid}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _span_wrapper(
    tracer: Tracer,
    fn: Callable[..., Any],
    name: str | Callable[..., str],
    *,
    record: bool = True,
    observe: Callable[..., None] | None = None,
    outermost: bool = False,
) -> Callable[..., Any]:
    """Wrap ``fn`` so each call is one frame named ``name``.

    ``name`` may be a function of the call's arguments.  ``observe``
    sees ``(duration_ns, args, kwargs, result)`` after the call.  With
    ``outermost`` a call made while a frame of the same name is on top
    of the stack is passed straight through (a scalar formula calling
    another scalar formula is one evaluation).
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        label = name(*args, **kwargs) if callable(name) else name
        if outermost and tracer.top() == label:
            return fn(*args, **kwargs)
        frame = tracer.enter(label)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = tracer.exit(frame, record)
            if observe is not None:
                observe(duration, args, kwargs, result)

    return wrapper


def _generator_wrapper(
    tracer: Tracer, fn: Callable[..., Any], name: str
) -> Callable[..., Any]:
    """Wrap a generator function: each ``next`` is one counted frame."""

    done = object()

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        while True:
            frame = tracer.enter(name)
            try:
                item = next(inner, done)
            finally:
                tracer.exit(frame, False)
            if item is done:
                return
            yield item

    return wrapper


def _patch_function(module: str, attr: str, wrapper_factory) -> None:
    """Replace ``module.attr`` in every repro namespace that binds it."""
    original = getattr(importlib.import_module(module), attr)
    wrapper = wrapper_factory(original)
    for mod in list(sys.modules.values()):
        if (
            isinstance(mod, types.ModuleType)
            and mod.__name__.startswith("repro")
            and mod.__dict__.get(attr) is original
        ):
            setattr(mod, attr, wrapper)


def _patch_method(cls: type, attr: str, wrapper_factory) -> None:
    """Replace a method (plain or classmethod) on its class."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(wrapper_factory(raw.__func__)))
    else:
        setattr(cls, attr, wrapper_factory(raw))


class _PoolModule:
    """``multiprocessing`` as seen by the batch module, with a timed Pool."""

    def __init__(self, real: types.ModuleType, pool: Callable[..., Any]):
        self._real = real
        self.Pool = pool

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._real, attr)


def install(out_dir: str) -> Tracer:
    """Wrap every traced boundary of the repro layers; return the tracer."""
    for module in MODULES:
        importlib.import_module(module)
    from repro.core.metrics import EvaluationCache
    from repro.core.metrics_bulk import BulkEvaluator
    from repro.engine import batch
    from repro.engine.store import ThreadSafeStore
    from repro.engine.sweeps import SweepPlan
    from repro.service.server import SolverService
    from repro.simulation.kernel import Simulator

    tracer = Tracer(out_dir)

    def span(name, **kw):
        return lambda fn: _span_wrapper(tracer, fn, name, **kw)

    # service: one frame per job on a worker thread
    _patch_method(SolverService, "_execute_job", span("service.job"))

    # store: the shared, lock-serialised front every worker goes through
    _patch_method(ThreadSafeStore, "get", span("store.get"))
    _patch_method(ThreadSafeStore, "put", span("store.put"))

    # batch / graph executor: pool start-up, worker init, task execution
    timed_pool = _span_wrapper(
        tracer, batch.multiprocessing.Pool, "graph.pool_start"
    )
    batch.multiprocessing = _PoolModule(batch.multiprocessing, timed_pool)
    _patch_function("repro.engine.batch", "_execute", span("graph.task"))
    _patch_function(
        "repro.engine.sweeps",
        "_install_worker_terms",
        span("graph.worker_init"),
    )

    # sweeps: spec load, grid derivation, term warm-up, one-pass cells
    _patch_method(SweepPlan, "from_spec", span("sweeps.compile"))
    _patch_method(SweepPlan, "grid_for", span("sweeps.compile"))
    _patch_function(
        "repro.engine.sweeps", "warm_pool_terms", span("sweeps.term_warmup")
    )
    _patch_function(
        "repro.engine.sweeps", "_one_pass_runner", span("graph.task")
    )

    # registry: one frame per solver call, named after the solver
    heuristic = threading.local()

    def solve_name(name, *args, **kwargs):
        return f"solve.{name}"

    def solve_factory(fn):
        inner = _span_wrapper(tracer, fn, solve_name)

        @functools.wraps(fn)
        def wrapper(name, *args, **kwargs):
            previous = getattr(heuristic, "on", False)
            heuristic.on = name in HEURISTICS
            try:
                return inner(name, *args, **kwargs)
            finally:
                heuristic.on = previous
                tracer.harvest_caches()

        return wrapper

    _patch_function("repro.engine.registry", "solve", solve_factory)
    _patch_function(
        "repro.algorithms.bicriteria.exhaustive",
        "exhaustive_sweep_min_fp",
        span("solve.exhaustive-one-pass"),
    )

    def proposals(duration, args, kwargs, result):
        # one proposal per step of the schedule (the third argument)
        tracer.count("anneal.proposals", args[2].steps)
        tracer.count("anneal.busy_ns", duration)

    _patch_function(
        "repro.algorithms.heuristics.annealing",
        "_metropolis_bulk",
        span("solve.anneal-loop", record=False, observe=proposals),
    )

    # bulk blocks: rows and the bytes of the arrays handed in
    def bulk_rows(duration, args, kwargs, result):
        block = args[1]
        tracer.count("bulk.rows", len(block))
        tracer.count("bulk.bytes_in", block.ends.nbytes + block.masks.nbytes)
        if getattr(heuristic, "on", False):
            tracer.count("confirm.rows", len(block))

    _patch_method(
        BulkEvaluator,
        "evaluate_block",
        span("bulk.evaluate_block", record=False, observe=bulk_rows),
    )
    # enumeration: each block the generator produces
    _patch_function(
        "repro.algorithms.bicriteria.exhaustive",
        "iter_mapping_blocks",
        lambda fn: _generator_wrapper(tracer, fn, "enum.block"),
    )

    # scalar eqs. (1)/(2): the free functions and the memoized cache
    def scalar_seen(duration, args, kwargs, result):
        if getattr(heuristic, "on", False):
            tracer.count("confirm.scalar", 1)

    scalar = span(
        "scalar.eval", record=False, observe=scalar_seen, outermost=True
    )
    for attr in ("latency", "failure_probability", "evaluate"):
        _patch_function("repro.core.metrics", attr, scalar)
        _patch_method(EvaluationCache, attr, scalar)

    original_init = EvaluationCache.__init__

    @functools.wraps(original_init)
    def cache_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.track_cache(self)

    EvaluationCache.__init__ = cache_init

    # simulation: event-loop steps and re-solves
    _patch_method(Simulator, "step", span("sim.step", record=False))
    _patch_function(
        "repro.simulation.dynamic", "resolve_mapping", span("sim.resolve")
    )
    return tracer


# ----------------------------------------------------------------------
# merging
# ----------------------------------------------------------------------
def merge(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum the calls, self times and counters of several processes."""
    calls: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    counters: dict[str, float] = {}
    spans = 0
    for snap in snapshots:
        for name, (n, busy) in snap["calls"].items():
            entry = calls.setdefault(name, [0, 0])
            entry[0] += n
            entry[1] += busy
        for layer, ns in snap["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + ns
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
        spans += len(snap["spans"])
    return {
        "calls": calls,
        "self_ns": self_ns,
        "counters": counters,
        "spans": spans,
        "processes": len(snapshots),
    }


def load(out_dir: str, own: Tracer | None = None) -> dict[str, Any]:
    """Merge ``own`` (listed first) with every process file in ``out_dir``."""
    snapshots = [own.snapshot()] if own is not None else []
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith(".json"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                snap = json.load(fh)
            if own is None or snap["pid"] != own.pid:
                snapshots.append(snap)
    return merge(snapshots)
