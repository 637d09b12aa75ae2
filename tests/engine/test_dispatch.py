"""The one dispatch loop: flat batches run as edgeless task graphs.

Covers what the batch view adds on top of the graph loop — fault
isolation of worker hand-off failures, pool sizing, and store reuse
mixed with a worker pool.
"""

import itertools
import multiprocessing

import pytest

from repro import api
from repro.engine import GraphNode, MemoryStore, run_graph
from repro.engine.batch import _effective_opts, _task_key
from repro.engine.policy import ErrorKind
from repro.engine.store import StoreStats

from tests.engine.synthetic import register_synthetic, unpicklable_min_fp
from tests.engine.test_batch import _mixed_tasks, _outcome_key
from tests.helpers import make_instance


@pytest.fixture
def instance():
    return make_instance("comm-homogeneous", 4, 4, 11)


class TestHandOffFaultIsolation:
    """A failure outside the solver guard is a CRASH outcome, and the
    rest of the batch still arrives."""

    @pytest.mark.parametrize(
        "drain",
        [
            lambda tasks: list(api.iter_batch(tasks, workers=2)),
            lambda tasks: list(
                api.iter_batch(tasks, workers=2, max_buffered=2)
            ),
            lambda tasks: api.run_batch(tasks, workers=2),
        ],
        ids=["iter_batch", "iter_batch-max_buffered", "run_batch"],
    )
    def test_unpicklable_result_is_a_crash(self, instance, drain):
        app, plat = instance
        with register_synthetic("unpicklable-min-fp", unpicklable_min_fp):
            tasks = [
                api.BatchTask(
                    "unpicklable-min-fp",
                    app,
                    plat,
                    threshold=t,
                    opts={"poison": i == 1},
                    tag=f"t{i}",
                )
                for i, t in enumerate([40.0, 50.0, 60.0, 70.0])
            ]
            outcomes = drain(tasks)

        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.tag for o in outcomes] == ["t0", "t1", "t2", "t3"]
        crashed = outcomes[1]
        assert crashed.error_kind is ErrorKind.CRASH
        assert "cannot be pickled" in crashed.error
        assert crashed.task is tasks[1]
        assert all(o.ok for i, o in enumerate(outcomes) if i != 1)


class TestPoolSizing:
    """The pool never has more processes than nodes left to run."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []
        real_pool = multiprocessing.Pool

        def recording_pool(*args, **kwargs):
            sizes.append(kwargs.get("processes", args[0] if args else None))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
        return sizes

    def test_two_node_graph(self, instance, pool_sizes):
        app, plat = instance
        nodes = [
            GraphNode(
                f"n{i}",
                api.BatchTask("greedy-min-fp", app, plat, threshold=t),
            )
            for i, t in enumerate([40.0, 60.0])
        ]
        results = run_graph(nodes, workers=8)
        assert all(o.ok for o in results.values())
        assert pool_sizes and max(pool_sizes) <= 2

    def test_two_point_sweep(self, instance, pool_sizes):
        app, plat = instance
        plan = api.SweepPlan.single(
            app, plat, "greedy-min-fp", [40.0, 60.0]
        )
        cells = list(api.iter_sweep(plan, workers=8))
        assert all(o.ok for o in cells[0].outcomes)
        assert pool_sizes and max(pool_sizes) <= 2

    def test_flat_batch(self, instance, pool_sizes):
        app, plat = instance
        tasks = [
            api.BatchTask("greedy-min-fp", app, plat, threshold=t)
            for t in (40.0, 60.0, 80.0)
        ]
        assert all(o.ok for o in api.run_batch(tasks, workers=8))
        assert pool_sizes == [3]


class _LoggingStore(MemoryStore):
    """A memory store that logs every ``get``/``put`` in call order."""

    def __init__(self):
        super().__init__()
        self.log = []

    def get(self, key):
        self.log.append(("get", key))
        return super().get(key)

    def put(self, key, record):
        self.log.append(("put", key))
        super().put(key, record)


class TestPartiallyWarmParallelBatch:
    """Store hits interleaved with misses, under a worker pool."""

    @pytest.mark.parametrize(
        "in_order, max_buffered",
        list(itertools.product([True, False], [None, 2])),
    )
    def test_hits_and_misses(self, in_order, max_buffered):
        tasks = _mixed_tasks()
        keys = [
            _task_key(task, _effective_opts(task, i, 5))
            for i, task in enumerate(tasks)
        ]
        assert None not in keys  # every task is reusable under a seed
        serial = api.run_batch(tasks, seed=5)

        # keep only every other task's record: hits alternate with
        # misses in the parallel batch
        warm_store = MemoryStore()
        api.run_batch(tasks, seed=5, store=warm_store)
        hits = set(range(0, len(tasks), 2))
        store = _LoggingStore()
        for i in sorted(hits):
            store.put(keys[i], warm_store.get(keys[i]))
        store.log.clear()
        store.stats = StoreStats()

        outcomes = list(
            api.iter_batch(
                tasks,
                workers=2,
                seed=5,
                store=store,
                in_order=in_order,
                max_buffered=max_buffered,
            )
        )

        if in_order:
            assert [o.index for o in outcomes] == list(range(len(tasks)))
        outcomes.sort(key=lambda o: o.index)
        assert [_outcome_key(o) for o in outcomes] == [
            _outcome_key(o) for o in serial
        ]
        assert {o.index for o in outcomes if o.cached} == hits
        assert store.stats.lookups == len(tasks)
        assert store.stats.hits == len(hits)
        gets = [key for op, key in store.log if op == "get"]
        puts = [key for op, key in store.log if op == "put"]
        assert sorted(gets) == sorted(keys)
        # every lookup precedes the first write
        assert store.log[: len(tasks)] == [("get", k) for k in gets]
        assert sorted(puts) == sorted(
            keys[i] for i in range(len(tasks)) if i not in hits
        )
