"""E23 — plan-level task-graph execution.

Quantifies the two claims of the graph-backed sweep engine:

* **whole-plan parallelism** — a multi-instance chained plan compiles
  to one dependency graph, so independent chains interleave across the
  worker pool while each chain still advances point-by-point; the
  target is >=2x wall-clock over the serial plan at ``workers=4``
  (asserted only on hosts with >=4 cores) with the usual never-worse
  chained objectives at every grid point;
* **streaming delivery** — :func:`~repro.engine.sweeps.iter_sweep`
  yields the first completed cell long before the plan finishes: the
  time-to-first-cell must be well under the full-plan wall-clock.
"""

import os
import time

from repro.api import (
    SweepInstance,
    SweepPlan,
    SweepSolver,
    iter_sweep,
    run_sweep,
)
from tests.helpers import make_instance

from .conftest import report

N, M = 24, 8
GRID_POINTS = 6
NUM_INSTANCES = 8
SOLVER = "local-search-min-fp"

MULTICORE = (os.cpu_count() or 1) >= 4


def _plan(warm_start="chain"):
    instances = tuple(
        SweepInstance(*make_instance("comm-homogeneous", N, M, 100 + i),
                      tag=f"i{i}")
        for i in range(NUM_INSTANCES)
    )
    return SweepPlan(
        instances=instances,
        solvers=(SweepSolver(SOLVER),),
        thresholds=None,
        num_points=GRID_POINTS,
        warm_start=warm_start,
    )


def _objectives(cell):
    return [
        (o.result.failure_probability, o.result.latency) if o.ok else None
        for o in cell.outcomes
    ]


def test_e23_plan_graph_parallel_speedup():
    """One graph, many chains: the pool overlaps whole instances."""
    plan = _plan()

    start = time.perf_counter()
    serial = run_sweep(plan, seed=0)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_sweep(plan, seed=0, workers=4)
    parallel_time = time.perf_counter() - start

    assert [_objectives(c) for c in parallel.cells] == [
        _objectives(c) for c in serial.cells
    ], "parallel plan diverged from serial"

    # never-worse chained objectives, per point, against the cold sweep
    cold = run_sweep(_plan(warm_start="off"), seed=0)
    for chained_cell, cold_cell in zip(serial.cells, cold.cells):
        assert chained_cell.chained and not cold_cell.chained
        for w, c in zip(chained_cell.outcomes, cold_cell.outcomes):
            if not c.ok:
                continue
            assert w.ok, f"chained plan lost feasibility at {c.tag}"
            assert (
                w.result.failure_probability
                <= c.result.failure_probability
            ), f"chained plan worse at {c.tag}"

    speedup = serial_time / max(parallel_time, 1e-9)
    report(
        f"E23: plan-level task graph, {NUM_INSTANCES} chained instances "
        f"({SOLVER}, n={N}, m={M}, {GRID_POINTS}-point grids)",
        ("path", "seconds", "speedup"),
        [
            ("serial plan", f"{serial_time:.3f}", "1.0x"),
            ("one graph, workers=4", f"{parallel_time:.3f}",
             f"{speedup:.1f}x"),
            ("host cores", f"{os.cpu_count()}", "-"),
        ],
    )
    if MULTICORE:
        assert speedup >= 2.0, (
            f"plan-graph speedup only {speedup:.2f}x at workers=4"
        )


def test_e23_time_to_first_cell():
    """Streaming yields the first cell long before the plan ends."""
    plan = _plan()
    start = time.perf_counter()
    first_after = None
    cells = 0
    for _cell in iter_sweep(plan, seed=0, in_order=False):
        cells += 1
        if first_after is None:
            first_after = time.perf_counter() - start
    total = time.perf_counter() - start

    report(
        f"E23: time-to-first-cell, streamed {cells}-cell plan",
        ("event", "seconds", "fraction of plan"),
        [
            ("first cell yielded", f"{first_after:.3f}",
             f"{first_after / total:.0%}"),
            ("plan drained", f"{total:.3f}", "100%"),
        ],
    )
    assert cells == NUM_INSTANCES
    # with NUM_INSTANCES equal cells the first should land near
    # 1/NUM_INSTANCES of the total; half is a generous ceiling
    assert first_after < 0.5 * total, (
        f"first cell took {first_after:.3f}s of a {total:.3f}s plan"
    )


def test_e23_bench_streamed_plan(benchmark):
    """pytest-benchmark row: a small plan through the graph executor."""
    instances = tuple(
        SweepInstance(*make_instance("comm-homogeneous", 12, 4, 200 + i),
                      tag=f"i{i}")
        for i in range(2)
    )
    plan = SweepPlan(
        instances=instances,
        solvers=(SweepSolver("greedy-min-fp"),),
        thresholds=None,
        num_points=5,
        warm_start="chain",
    )

    cells = benchmark(lambda: list(iter_sweep(plan, seed=0)))
    assert len(cells) == 2
