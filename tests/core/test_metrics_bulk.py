"""Scalar ↔ vectorized equivalence of the bulk evaluation path.

The :class:`~repro.core.metrics_bulk.BulkEvaluator` must agree with the
scalar :func:`~repro.core.metrics.evaluate` /
:class:`~repro.core.metrics.EvaluationCache` on every mapping, within
the documented :data:`~repro.core.metrics_bulk.BULK_RELATIVE_TOLERANCE`
— on random instances of every platform class, and on the degenerate
shapes (single interval, every stage its own interval) where padding
bugs would hide.
"""

import math
import random
from collections import OrderedDict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import (
    BULK_RELATIVE_TOLERANCE,
    BulkEvaluator,
    EvaluationCache,
    IntervalMapping,
    MappingBlock,
    PipelineApplication,
    Platform,
    StageInterval,
    evaluate,
    nondominated_mask,
    pareto_front,
)
from repro.core import enumeration
from repro.core.enumeration import (
    allocation_mask_rows,
    allocations_for_partition,
    enumerate_interval_mappings,
    iter_mapping_blocks,
)
from repro.core.metrics_bulk import MASK_TABLE_LIMIT, SEND_TABLE_ENTRIES
from repro.core.topology import IN, OUT
from repro.core.pareto import BiCriteriaPoint
from repro.exceptions import SolverError

from tests.helpers import make_instance
from tests.strategies import (
    applications,
    comm_homogeneous_platforms,
    fully_heterogeneous_platforms,
    interval_mappings,
    platforms,
)

np = pytest.importorskip("numpy", exc_type=ImportError)


def assert_bulk_matches_scalar(app, plat, mappings, *, one_port=True):
    """Encode ``mappings`` and compare both objectives per row."""
    block = MappingBlock.from_mappings(mappings, app.num_stages, plat.size)
    evaluator = BulkEvaluator(app, plat, one_port=one_port)
    lats, fps = evaluator.evaluate_block(block)
    cache = EvaluationCache(app, plat, one_port=one_port)
    for i, mapping in enumerate(mappings):
        scalar = cache.evaluate(mapping)
        assert math.isclose(
            lats[i], scalar.latency, rel_tol=BULK_RELATIVE_TOLERANCE
        ), (mapping, lats[i], scalar.latency)
        assert math.isclose(
            fps[i],
            scalar.failure_probability,
            rel_tol=BULK_RELATIVE_TOLERANCE,
            abs_tol=1e-300,
        ), (mapping, fps[i], scalar.failure_probability)


@st.composite
def app_platform_mappings(draw, platform_strategy=None, max_mappings=8):
    """A consistent (application, platform, [mappings]) triple."""
    app = draw(applications(max_stages=4))
    if platform_strategy is None:
        platform_strategy = platforms(min_processors=1, max_processors=5)
    plat = draw(platform_strategy)
    count = draw(st.integers(min_value=1, max_value=max_mappings))
    mappings = [
        draw(interval_mappings(app.num_stages, plat.size))
        for _ in range(count)
    ]
    return app, plat, mappings


class TestBulkMatchesScalar:
    @given(app_platform_mappings())
    @settings(max_examples=120, deadline=None)
    def test_any_platform_class(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings)

    @given(
        app_platform_mappings(
            platform_strategy=comm_homogeneous_platforms(
                min_processors=1, max_processors=6
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_uniform_links(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings)

    @given(
        app_platform_mappings(
            platform_strategy=fully_heterogeneous_platforms(
                min_processors=1, max_processors=5
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_heterogeneous_links(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings)

    @given(app_platform_mappings())
    @settings(max_examples=40, deadline=None)
    def test_multi_port_ablation(self, triple):
        app, plat, mappings = triple
        assert_bulk_matches_scalar(app, plat, mappings, one_port=False)

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_whole_space_small_instances(self, kind, seed):
        app, plat = make_instance(kind, n=4, m=4, seed=seed)
        mappings = list(enumerate_interval_mappings(4, 4))
        assert_bulk_matches_scalar(app, plat, mappings)


class TestEdgeShapes:
    """Padding-sensitive degenerate shapes, checked explicitly."""

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    def test_single_interval_full_replication(self, kind):
        app, plat = make_instance(kind, n=5, m=4, seed=7)
        mappings = [
            IntervalMapping.single_interval(5, {1}),
            IntervalMapping.single_interval(5, {3}),
            IntervalMapping.single_interval(5, {1, 2, 3, 4}),
        ]
        assert_bulk_matches_scalar(app, plat, mappings)

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    def test_every_stage_its_own_interval(self, kind):
        app, plat = make_instance(kind, n=4, m=4, seed=7)
        mappings = [
            IntervalMapping.one_to_one([1, 2, 3, 4]),
            IntervalMapping.one_to_one([4, 3, 2, 1]),
        ]
        assert_bulk_matches_scalar(app, plat, mappings)

    def test_single_stage_pipeline(self):
        app = PipelineApplication(works=(3.0,), volumes=(1.0, 2.0))
        plat = Platform.communication_homogeneous(
            [1.0, 2.0], failure_probabilities=[0.2, 0.5]
        )
        mappings = list(enumerate_interval_mappings(1, 2))
        assert_bulk_matches_scalar(app, plat, mappings)

    def test_certain_failure_maps_to_fp_one(self):
        app = PipelineApplication(works=(1.0, 1.0), volumes=(1.0, 1.0, 1.0))
        plat = Platform.communication_homogeneous(
            [1.0, 1.0], failure_probabilities=[1.0, 0.5]
        )
        mappings = list(enumerate_interval_mappings(2, 2))
        assert_bulk_matches_scalar(app, plat, mappings)

    def test_reference_instances(self, fig34, fig5):
        for inst in (fig34, fig5):
            app, plat = inst.application, inst.platform
            mappings = list(
                enumerate_interval_mappings(app.num_stages, plat.size)
            )[:2000]
            assert_bulk_matches_scalar(app, plat, mappings)


class TestMappingBlock:
    def test_round_trip(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=3, seed=0)
        mappings = list(enumerate_interval_mappings(5, 3))
        block = MappingBlock.from_mappings(mappings, 5, 3)
        assert len(block) == len(mappings)
        assert list(block.mappings()) == mappings

    def test_instance_mismatch_rejected(self):
        app, plat = make_instance("comm-homogeneous", n=3, m=3, seed=0)
        other_app, other_plat = make_instance(
            "comm-homogeneous", n=4, m=2, seed=0
        )
        block = MappingBlock.from_mappings(
            list(enumerate_interval_mappings(4, 2)), 4, 2
        )
        evaluator = BulkEvaluator(app, plat)
        with pytest.raises(SolverError):
            evaluator.latencies(block)


class TestIterMappingBlocks:
    @pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (4, 4), (5, 3), (7, 4)])
    def test_matches_scalar_enumeration_in_order(self, n, m):
        app, plat = make_instance("comm-homogeneous", n=n, m=m, seed=1)
        scalar = list(enumerate_interval_mappings(n, m))
        blocks = list(iter_mapping_blocks(app, plat, block_size=64))
        decoded = [mp for block in blocks for mp in block.mappings()]
        assert decoded == scalar
        assert all(len(block) <= 64 for block in blocks)

    def test_max_replication_parity(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=4, seed=2)
        scalar = list(
            enumerate_interval_mappings(4, 4, max_replication=2)
        )
        decoded = [
            mp
            for block in iter_mapping_blocks(
                app, plat, block_size=50, max_replication=2
            )
            for mp in block.mappings()
        ]
        assert decoded == scalar

    def test_allocation_mask_rows_match_frozenset_enumeration(self):
        for p, m in [(1, 3), (2, 4), (3, 4), (4, 4)]:
            masks = allocation_mask_rows(p, m)
            reference = [
                tuple(
                    sum(1 << (u - 1) for u in alloc) for alloc in allocs
                )
                for allocs in allocations_for_partition(
                    p, range(1, m + 1)
                )
            ]
            assert masks == reference

    def test_invalid_block_size_rejected(self):
        app, plat = make_instance("comm-homogeneous", n=3, m=2, seed=0)
        with pytest.raises(ValueError):
            next(iter_mapping_blocks(app, plat, block_size=0))


class TestAllocationTableMemo:
    """The allocation tables are shared across sweeps, read-only."""

    def test_second_sweep_keeps_enumeration_order(self):
        app, plat = make_instance("comm-homogeneous", n=5, m=4, seed=3)
        scalar = list(enumerate_interval_mappings(5, 4))
        for _ in range(2):
            decoded = [
                mp
                for block in iter_mapping_blocks(app, plat, block_size=37)
                for mp in block.mappings()
            ]
            assert decoded == scalar

    def test_cached_tables_are_read_only(self):
        app, plat = make_instance("comm-homogeneous", n=4, m=3, seed=0)
        list(iter_mapping_blocks(app, plat))
        table = enumeration._allocation_table(2, 3, None)
        assert table is enumeration._allocation_table(2, 3, None)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0

    def test_max_replication_keys_are_distinct(self):
        full = enumeration._allocation_table(2, 4, None)
        capped = enumeration._allocation_table(2, 4, 1)
        assert capped is not full
        assert len(capped) < len(full)
        assert [tuple(r[:2]) for r in capped.tolist()] == (
            allocation_mask_rows(2, 4, max_replication=1)
        )
        app, plat = make_instance("comm-homogeneous", n=4, m=4, seed=2)
        for cap in (None, 1, None):
            decoded = [
                mp
                for block in iter_mapping_blocks(
                    app, plat, max_replication=cap
                )
                for mp in block.mappings()
            ]
            assert decoded == list(
                enumerate_interval_mappings(4, 4, max_replication=cap)
            )

    def test_retained_bytes_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_allocation_tables", OrderedDict())
        budget = enumeration._allocation_table(3, 5, None).nbytes
        monkeypatch.setattr(enumeration, "ALLOCATION_TABLE_BYTES", budget)
        for p in (1, 2, 3, 4):
            enumeration._allocation_table(p, 5, None)
            retained = enumeration._allocation_tables.values()
            assert sum(t.nbytes for t in retained) <= budget


class TestNondominatedMask:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_prefilter_preserves_pareto_front(self, pairs):
        lats = np.array([p[0] for p in pairs])
        fps = np.array([p[1] for p in pairs])
        keep = nondominated_mask(lats, fps)
        points = [
            BiCriteriaPoint(lat, fp, payload=i)
            for i, (lat, fp) in enumerate(pairs)
        ]
        survivors = [p for p, k in zip(points, keep) if k]
        full_front = pareto_front(points)
        filtered_front = pareto_front(survivors)
        assert [
            (p.latency, p.failure_probability, p.payload)
            for p in filtered_front
        ] == [
            (p.latency, p.failure_probability, p.payload)
            for p in full_front
        ]

    def test_duplicates_all_kept(self):
        lats = np.array([1.0, 1.0, 2.0])
        fps = np.array([0.5, 0.5, 0.1])
        assert nondominated_mask(lats, fps).tolist() == [True, True, True]

    def test_empty_input(self):
        assert nondominated_mask(np.zeros(0), np.zeros(0)).tolist() == []


class TestSinglePassEvaluation:
    """Each block is evaluated in one pass, whatever its size.

    Every reduction is within a row, so a row's objectives must not
    depend on which other rows share its block.
    """

    def _big_block(self, kind, n=13, m=4, seed=3):
        app, plat = make_instance(kind, n, m, seed)
        mappings = list(enumerate_interval_mappings(n, m))
        assert len(mappings) > 8192
        block = MappingBlock.from_mappings(mappings, n, m)
        return app, plat, mappings, block

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    def test_rows_independent_of_block_split(self, kind):
        app, plat, _, block = self._big_block(kind)
        evaluator = BulkEvaluator(app, plat)
        lats, fps = evaluator.evaluate_block(block)
        assert np.array_equal(lats, evaluator.latencies(block))
        assert np.array_equal(fps, evaluator.failure_probabilities(block))
        cut = [0, 1, 1000, 5000, len(block)]
        parts = [
            MappingBlock(
                num_stages=block.num_stages,
                num_processors=block.num_processors,
                ends=block.ends[lo:hi],
                masks=block.masks[lo:hi],
            )
            for lo, hi in zip(cut, cut[1:])
        ]
        assert np.array_equal(
            np.concatenate([evaluator.latencies(p) for p in parts]), lats
        )
        assert np.array_equal(
            np.concatenate(
                [evaluator.failure_probabilities(p) for p in parts]
            ),
            fps,
        )

    @pytest.mark.parametrize(
        "kind", ["comm-homogeneous", "fully-heterogeneous"]
    )
    def test_large_block_matches_scalar(self, kind):
        app, plat, mappings, _ = self._big_block(kind)
        sample = random.Random(5).sample(mappings, 64)
        assert_bulk_matches_scalar(app, plat, sample + mappings[-8:])

    def test_no_executor_lifecycle(self):
        for name in ("close", "__enter__", "__exit__", "__del__"):
            assert not hasattr(BulkEvaluator, name), name

    @pytest.mark.parametrize("option", ["shards", "shard_min_rows"])
    def test_removed_shard_options_rejected(self, option):
        app, plat = make_instance("comm-homogeneous", 3, 3, 1)
        with pytest.raises(TypeError, match=option):
            BulkEvaluator(app, plat, **{option: 2})


class TestHeterogeneousSendRestructure:
    """The numpy eq. (2) path is bit-identical to the 4-D formulation.

    The former heterogeneous path materialised a ``(B, width, m, m)``
    ``send_uv`` array and summed (or maxed) each sender's masked row;
    the evaluator now gathers per-instance send, compute, input and
    membership tables instead.  For ``m < 8`` numpy's row sum is the
    same ascending left fold the send table is built with, so the
    results must match exactly — not just within tolerance.
    """

    @staticmethod
    def _legacy_latencies(ev, block):
        """The pre-restructure formulation, kept inline as the oracle."""
        masks = block.masks
        valid = masks != 0
        bits = ev._bits(masks)
        starts = ev._starts(block)
        work = ev._work_prefix[block.ends] - ev._work_prefix[starts - 1]
        delta_out = ev._volumes[block.ends]
        compute = work[..., None] / ev._speeds
        next_masks = np.zeros_like(masks)
        next_masks[:, :-1] = masks[:, 1:]
        next_bits = ev._bits(next_masks)
        counts = valid.sum(axis=1)
        col = np.arange(block.width)
        is_last = valid & (col == (counts - 1)[:, None])
        send_uv = delta_out[..., None, None] / ev._links  # (B, width, m, m)
        nb = next_bits[:, :, None, :]
        if ev.one_port:
            sends = np.where(nb, send_uv, 0.0).sum(axis=3)
        else:
            part = np.where(nb, send_uv, -np.inf).max(axis=3)
            sends = np.where(next_bits.any(axis=2)[..., None], part, 0.0)
        out_sends = delta_out[..., None] / ev._out_bw
        sends = np.where(is_last[..., None], out_sends, sends)
        per_replica = compute + sends
        worst = np.where(bits, per_replica, -np.inf).max(axis=2)
        terms = np.where(valid, worst, 0.0)
        in_times = ev.application.input_size / ev._in_bw
        first = bits[:, 0, :]
        if ev.one_port:
            input_term = np.where(first, in_times, 0.0).sum(axis=1)
        else:
            input_term = np.where(first, in_times, -np.inf).max(axis=1)
        return input_term + terms.sum(axis=1)

    @pytest.mark.parametrize("one_port", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_legacy(self, one_port, seed):
        app, plat = make_instance("fully-heterogeneous", 5, 4, seed)
        mappings = list(enumerate_interval_mappings(5, 4))
        block = MappingBlock.from_mappings(mappings, 5, 4)
        evaluator = BulkEvaluator(
            app, plat, one_port=one_port, backend="numpy"
        )
        assert np.array_equal(
            evaluator.latencies(block),
            self._legacy_latencies(evaluator, block),
        )

    @given(
        app_platform_mappings(
            platform_strategy=fully_heterogeneous_platforms(
                min_processors=1, max_processors=5
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_random_instances(self, triple, one_port):
        app, plat, mappings = triple
        # degenerate draws (e.g. m=1) collapse to uniform links and take
        # the eq. (1) path, which has no send table to compare
        assume(not plat.is_communication_homogeneous)
        block = MappingBlock.from_mappings(
            mappings, app.num_stages, plat.size
        )
        evaluator = BulkEvaluator(
            app, plat, one_port=one_port, backend="numpy"
        )
        assert np.array_equal(
            evaluator.latencies(block),
            self._legacy_latencies(evaluator, block),
        )


def _random_mappings(n, m, count, seed):
    """``count`` random interval mappings of ``n`` stages on ``m``."""
    rng = random.Random(seed)
    mappings = []
    for _ in range(count):
        p = rng.randint(1, min(n, m))
        cuts = sorted(rng.sample(range(1, n), p - 1))
        bounds = [0, *cuts, n]
        pool = rng.sample(range(1, m + 1), rng.randint(p, m))
        splits = sorted(rng.sample(range(1, len(pool)), p - 1))
        groups = [
            set(pool[lo:hi]) for lo, hi in zip([0, *splits], [*splits, None])
        ]
        mappings.append(
            IntervalMapping(
                [StageInterval(lo + 1, hi) for lo, hi in zip(bounds, bounds[1:])],
                groups,
            )
        )
    return mappings


class TestEq2Tables:
    """The tabulated eq. (2) terms and the size rule around them."""

    @given(
        applications(max_stages=6),
        fully_heterogeneous_platforms(min_processors=2, max_processors=10),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_terms_equal_scalar_fold(self, app, plat, one_port, data):
        """Send and input terms are the scalar eq. (2) fold, exactly."""
        assume(not plat.is_communication_homogeneous)
        ev = BulkEvaluator(app, plat, one_port=one_port, backend="numpy")
        assert ev._eq2_tables
        n, m = app.num_stages, plat.size
        topo = plat.topology
        reduce = sum if one_port else max

        def fold(size, senders, receivers):
            return reduce(
                topo.transfer_time(size, u, v)
                for u in senders
                for v in receivers
            )

        full = (1 << m) - 1
        masks = data.draw(
            st.lists(st.integers(1, full), min_size=1, max_size=30)
        )
        for mask in [full, *masks]:
            replicas = [u + 1 for u in range(m) if mask >> u & 1]
            assert ev._in_table[mask] == fold(
                app.input_size, [IN], replicas
            )
            end = data.draw(st.integers(0, n))
            sender = data.draw(st.integers(1, m))
            delta = app.volume(end)
            row = ev._send_table[sender - 1]
            assert row[end << m | mask] == fold(delta, [sender], replicas)
            assert row[end << m] == topo.transfer_time(delta, sender, OUT)

    @pytest.mark.parametrize("one_port", [True, False])
    def test_past_mask_table_limit_falls_back(self, one_port):
        m = MASK_TABLE_LIMIT + 1
        app, plat = make_instance("fully-heterogeneous", 5, m, seed=4)
        ev = BulkEvaluator(app, plat, one_port=one_port, backend="numpy")
        assert not ev._eq2_tables
        mappings = _random_mappings(5, m, 40, seed=4)
        assert_bulk_matches_scalar(app, plat, mappings, one_port=one_port)

    @pytest.mark.parametrize("one_port", [True, False])
    def test_past_send_table_budget_falls_back(self, one_port):
        m = 12
        n = SEND_TABLE_ENTRIES // ((1 << m) * m)  # first n over budget
        app, plat = make_instance("fully-heterogeneous", n, m, seed=5)
        ev = BulkEvaluator(app, plat, one_port=one_port, backend="numpy")
        assert not ev._eq2_tables
        below, _ = make_instance("fully-heterogeneous", n - 1, m, seed=5)
        assert BulkEvaluator(below, plat, backend="numpy")._eq2_tables
        mappings = _random_mappings(n, m, 40, seed=5)
        assert_bulk_matches_scalar(app, plat, mappings, one_port=one_port)
