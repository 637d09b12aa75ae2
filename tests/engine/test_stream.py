"""Streaming execution: iter_batch, fault isolation, retries, timeouts."""

import pytest

from repro import api, engine
from repro.api import BatchPolicy, BatchTask, ErrorKind, iter_batch

from tests.engine.synthetic import (
    counting_min_fp,
    crashy_min_fp,
    flaky_min_fp,
    invocations,
    register_synthetic,
    sleepy_min_fp,
)
from tests.helpers import make_instance


@pytest.fixture
def instance():
    return make_instance("comm-homogeneous", 3, 4, 11)


def _outcome_key(outcome):
    if outcome.result is None:
        return (outcome.index, outcome.tag, outcome.error, outcome.error_kind)
    return (
        outcome.index,
        outcome.tag,
        outcome.result.latency,
        outcome.result.failure_probability,
        outcome.result.mapping,
    )


class TestStreaming:
    def test_first_outcome_before_batch_completes(self, tmp_path, instance):
        """The defining property: results stream, they don't batch."""
        app, plat = instance
        counter = tmp_path / "count"
        tasks = [
            BatchTask(
                "counting-stream",
                app,
                plat,
                threshold=t,
                opts={"counter_file": str(counter)},
            )
            for t in (30.0, 50.0, 80.0, 120.0)
        ]
        with register_synthetic("counting-stream", counting_min_fp):
            stream = iter_batch(tasks)
            first = next(stream)
            # only the first task has run when the first outcome arrives
            assert invocations(counter) == 1
            remaining = list(stream)
        assert first.index == 0 and first.ok
        assert [o.index for o in remaining] == [1, 2, 3]
        assert invocations(counter) == len(tasks)

    def test_stream_identical_to_run_batch(self, instance):
        app, plat = instance
        tasks = [
            BatchTask("greedy-min-fp", app, plat, threshold=t, tag=f"t={t:g}")
            for t in (20.0, 1e-9, 60.0, 90.0)
        ] + [
            BatchTask(
                "local-search-min-fp",
                app,
                plat,
                threshold=80.0,
                tag="seeded",
            )
        ]
        batched = api.run_batch(tasks, seed=5)
        streamed = list(iter_batch(tasks, seed=5))
        streamed_parallel = list(iter_batch(tasks, workers=3, seed=5))
        assert [_outcome_key(o) for o in batched] == [
            _outcome_key(o) for o in streamed
        ]
        assert [_outcome_key(o) for o in batched] == [
            _outcome_key(o) for o in streamed_parallel
        ]

    def test_unordered_mode_yields_every_index_once(self, instance):
        app, plat = instance
        tasks = [
            BatchTask("greedy-min-fp", app, plat, threshold=t)
            for t in (20.0, 40.0, 60.0, 80.0, 100.0, 120.0)
        ]
        unordered = list(iter_batch(tasks, workers=3, in_order=False))
        assert sorted(o.index for o in unordered) == list(range(len(tasks)))
        in_order = list(iter_batch(tasks, workers=3))
        assert sorted(_outcome_key(o) for o in unordered) == sorted(
            _outcome_key(o) for o in in_order
        )

    def test_empty_batch_streams_nothing(self):
        assert list(iter_batch([])) == []

    def test_stream_with_warm_store_mixed_hits(self, instance):
        app, plat = instance
        store = engine.MemoryStore()
        warm_tasks = [
            BatchTask("greedy-min-fp", app, plat, threshold=t)
            for t in (20.0, 60.0)
        ]
        api.run_batch(warm_tasks, store=store)
        mixed = [
            BatchTask("greedy-min-fp", app, plat, threshold=t)
            for t in (20.0, 40.0, 60.0, 80.0)
        ]
        outcomes = list(iter_batch(mixed, workers=2, store=store))
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert [o.cached for o in outcomes] == [True, False, True, False]


class TestFaultIsolation:
    """Satellite regression: a crashing task never aborts a mixed batch."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_crash_is_isolated(self, workers, instance):
        app, plat = instance
        with register_synthetic("crashy-iso", crashy_min_fp):
            tasks = [
                BatchTask("crashy-iso", app, plat, threshold=50.0),
                BatchTask(
                    "crashy-iso",
                    app,
                    plat,
                    threshold=50.0,
                    opts={"crash": True},
                ),
                BatchTask("crashy-iso", app, plat, threshold=50.0),
            ]
            outcomes = api.run_batch(tasks, workers=workers)
        assert outcomes[0].ok and outcomes[2].ok
        crash = outcomes[1]
        assert not crash.ok
        assert crash.error_kind is ErrorKind.CRASH
        assert "TypeError" in crash.error

    def test_bad_opts_crash_is_isolated(self, instance):
        """An unknown solver option fails its own task, never the batch."""
        app, plat = instance
        tasks = [
            BatchTask("greedy-min-fp", app, plat, threshold=50.0),
            BatchTask(
                "greedy-min-fp",
                app,
                plat,
                threshold=50.0,
                opts={"definitely_not_an_opt": 1},
            ),
        ]
        for workers in (None, 2):
            outcomes = api.run_batch(tasks, workers=workers)
            assert outcomes[0].ok
            assert outcomes[1].error_kind is ErrorKind.UNSUPPORTED
            assert "SolverError" in outcomes[1].error
            assert "'definitely_not_an_opt'" in outcomes[1].error

    @pytest.mark.parametrize("workers", [None, 2])
    def test_unknown_option_is_not_retried(self, workers, instance):
        """An unknown option is a deterministic verdict: one attempt,
        with the offending option named, however many retries the
        policy allows."""
        app, plat = instance
        tasks = [
            BatchTask(
                "greedy-min-fp",
                app,
                plat,
                threshold=50.0,
                opts={"bulk_shardz": 4},
            ),
            BatchTask("greedy-min-fp", app, plat, threshold=50.0),
        ]
        outcomes = api.run_batch(
            tasks, workers=workers, policy=BatchPolicy(retries=2)
        )
        bad = outcomes[0]
        assert bad.error_kind is ErrorKind.UNSUPPORTED
        assert bad.attempts == 1
        assert "'bulk_shardz'" in bad.error
        assert outcomes[1].ok

    @pytest.mark.parametrize("workers", [None, 2])
    def test_mixed_crash_timeout_batches_serial_equals_parallel(
        self, workers, instance
    ):
        app, plat = instance
        policy = BatchPolicy(timeout=0.25)
        with register_synthetic("crashy-mix", crashy_min_fp), \
                register_synthetic("sleepy-mix", sleepy_min_fp):
            tasks = [
                BatchTask("crashy-mix", app, plat, threshold=50.0),
                BatchTask(
                    "crashy-mix", app, plat, threshold=50.0,
                    opts={"crash": True},
                ),
                BatchTask(
                    "sleepy-mix", app, plat, threshold=50.0,
                    opts={"sleep": 5.0},
                ),
                BatchTask("sleepy-mix", app, plat, threshold=50.0),
                BatchTask("greedy-min-fp", app, plat, threshold=1e-9),
            ]
            outcomes = api.run_batch(tasks, workers=workers, policy=policy)
        kinds = [o.error_kind for o in outcomes]
        assert kinds == [
            None,
            ErrorKind.CRASH,
            ErrorKind.TIMEOUT,
            None,
            ErrorKind.INFEASIBLE,
        ]
        assert outcomes[0].ok and outcomes[3].ok

    def test_error_kinds_for_structural_failures(self, instance):
        app, plat = instance
        # out-of-domain dispatch: alg1 needs Fully Homogeneous
        outcomes = api.run_batch(
            [BatchTask("alg1", app, plat, threshold=50.0)]
        )
        assert outcomes[0].error_kind is ErrorKind.UNSUPPORTED


class TestRetries:
    def test_transient_failure_retried_to_success(self, tmp_path, instance):
        app, plat = instance
        scratch = tmp_path / "flaky"
        policy = BatchPolicy(retries=2)
        with register_synthetic("flaky-ok", flaky_min_fp):
            outcomes = api.run_batch(
                [
                    BatchTask(
                        "flaky-ok",
                        app,
                        plat,
                        threshold=50.0,
                        opts={"fail_first": 2, "scratch": str(scratch)},
                    )
                ],
                policy=policy,
            )
        assert outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert invocations(scratch) == 3

    def test_retries_exhausted_reports_crash(self, tmp_path, instance):
        app, plat = instance
        scratch = tmp_path / "flaky"
        policy = BatchPolicy(retries=1)
        with register_synthetic("flaky-bad", flaky_min_fp):
            outcomes = api.run_batch(
                [
                    BatchTask(
                        "flaky-bad",
                        app,
                        plat,
                        threshold=50.0,
                        opts={"fail_first": 10, "scratch": str(scratch)},
                    )
                ],
                policy=policy,
            )
        assert not outcomes[0].ok
        assert outcomes[0].error_kind is ErrorKind.CRASH
        assert outcomes[0].attempts == 2
        assert invocations(scratch) == 2

    def test_infeasible_never_retried(self, instance):
        app, plat = instance
        policy = BatchPolicy(
            retries=3, retry_on=frozenset(ErrorKind)
        )
        outcomes = api.run_batch(
            [BatchTask("greedy-min-fp", app, plat, threshold=1e-9)],
            policy=policy,
        )
        assert outcomes[0].error_kind is ErrorKind.INFEASIBLE
        assert outcomes[0].attempts == 1


class TestTimeouts:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_timeout_produces_timeout_kind(self, workers, instance):
        app, plat = instance
        policy = BatchPolicy(timeout=0.2)
        with register_synthetic("sleepy-to", sleepy_min_fp):
            outcomes = api.run_batch(
                [
                    BatchTask(
                        "sleepy-to", app, plat, threshold=50.0,
                        opts={"sleep": 5.0},
                    ),
                    BatchTask("sleepy-to", app, plat, threshold=50.0),
                ],
                workers=workers,
                policy=policy,
            )
        assert outcomes[0].error_kind is ErrorKind.TIMEOUT
        assert "TaskTimeoutError" in outcomes[0].error
        assert outcomes[1].ok

    def test_timed_out_task_is_retried(self, instance):
        app, plat = instance
        policy = BatchPolicy(retries=1, timeout=0.2)
        with register_synthetic("sleepy-rt", sleepy_min_fp):
            outcomes = api.run_batch(
                [
                    BatchTask(
                        "sleepy-rt", app, plat, threshold=50.0,
                        opts={"sleep": 5.0},
                    )
                ],
                policy=policy,
            )
        assert outcomes[0].error_kind is ErrorKind.TIMEOUT
        assert outcomes[0].attempts == 2
