"""Stable public facade: the supported surface of the repro engine.

The engine grew across many PRs and its internals
(:mod:`repro.engine.batch`, :mod:`repro.engine.sweeps`,
:mod:`repro.simulation.dynamic`, ...) move freely between releases.
This module is the part that does **not** move: one import path
exporting the supported entry points, shared by library users, the CLI,
the examples and the solve service.

    from repro import api

    result = api.solve("greedy-min-fp", app, plat, threshold=30.0)

    plan = api.load_spec("sweep.json")            # versioned JSON spec
    with api.open_store("results.sqlite") as store:
        for cell in api.iter_sweep(plan, store=store):
            print(cell.instance_tag, cell.solver, len(cell.outcomes))

    sim = api.load_spec({"kind": "simulation", ...})
    report = api.run_simulation(sim)              # solve → run → fail → re-solve

The facade is additive: the deep module paths
(``repro.engine.registry``, ``repro.engine.sweeps``,
``repro.simulation.dynamic``, ...) keep working, but new code — and all
shipped examples — imports from here.  The ``repro.engine`` package
itself binds only engine-level names (stores, graph nodes, replay
types); the entry points listed here are not re-exported there.

**Schema versioning.**  :data:`SCHEMA_VERSION` is the version of the
declarative JSON spec dialect spoken by :func:`plan_from_spec` /
:func:`plan_to_spec` / :func:`sim_from_spec` / :func:`sim_to_spec`, the
``sweep``/``simulate``/``submit`` CLI commands and the solve-service
protocol (:mod:`repro.service`).  Specs that declare ``{"schema": N}``
are validated strictly (unknown top-level keys are rejected by name);
legacy specs without the field load leniently.  Serialized specs also
carry a ``kind`` field (``"sweep"`` or ``"simulation"``) so one loader
— :func:`load_spec` — dispatches every spec to the right runner.
"""

from __future__ import annotations

import json
import os
from typing import Any, Mapping

from .engine.batch import (
    BatchOutcome,
    BatchTask,
    iter_batch,
    run_batch,
    threshold_sweep,
)
from .engine.policy import BatchPolicy, ErrorKind
from .engine.recorder import RunRecording, record_run
from .engine.registry import (
    Objective,
    SolverSpec,
    get_solver,
    solve,
    solver_names,
    solver_specs,
)
from .engine.replay import ReplayReport, diff_runs, replay_run
from .engine.store import ResultStore, StoreStats, open_store
from .engine.sweeps import (
    SPEC_KIND_SWEEP,
    SPEC_SCHEMA_VERSION,
    SweepCell,
    SweepInstance,
    SweepPlan,
    SweepPoint,
    SweepResult,
    SweepSolver,
    iter_sweep,
    run_sweep,
)
from .exceptions import ReproError
from .simulation.dynamic import (
    FAILURE_MODELS,
    REMAP_POLICIES,
    SPEC_KIND_SIMULATION,
    EpochReport,
    PlatformEvent,
    RemapOutcome,
    SimulationResult,
    SimulationSpec,
    iter_simulation,
    resolve_mapping,
    run_simulation,
)
from .simulation.failures import (
    BernoulliMissionModel,
    ExponentialLifetimeModel,
    FailureScenario,
    no_failures,
)
from .simulation.montecarlo import (
    empirical_vs_analytic_fp,
    estimate_failure_probability,
    sample_latencies,
    validate_batch_fp,
)
from .simulation.pipeline import (
    ElectionPolicy,
    realized_latency,
    simulate_stream,
)
from .simulation.trace import check_one_port
from .workloads.scenarios import make_scenario, scenario_names

__all__ = [
    "SCHEMA_VERSION",
    # solving
    "solve",
    "solver_names",
    "solver_specs",
    "get_solver",
    "SolverSpec",
    "Objective",
    # batches
    "run_batch",
    "iter_batch",
    "threshold_sweep",
    "BatchTask",
    "BatchOutcome",
    "BatchPolicy",
    "ErrorKind",
    # sweeps + spec round-trip
    "run_sweep",
    "iter_sweep",
    "load_spec",
    "plan_from_spec",
    "plan_to_spec",
    "SweepPlan",
    "SweepInstance",
    "SweepSolver",
    "SweepCell",
    "SweepPoint",
    "SweepResult",
    # store
    "open_store",
    "ResultStore",
    "StoreStats",
    # record/replay
    "record_run",
    "replay_run",
    "diff_runs",
    "RunRecording",
    "ReplayReport",
    # dynamic simulation
    "run_simulation",
    "iter_simulation",
    "sim_from_spec",
    "sim_to_spec",
    "SimulationSpec",
    "SimulationResult",
    "EpochReport",
    "PlatformEvent",
    "RemapOutcome",
    "resolve_mapping",
    "REMAP_POLICIES",
    "FAILURE_MODELS",
    # static simulation + validation
    "simulate_stream",
    "realized_latency",
    "ElectionPolicy",
    "check_one_port",
    "FailureScenario",
    "BernoulliMissionModel",
    "ExponentialLifetimeModel",
    "no_failures",
    "estimate_failure_probability",
    "sample_latencies",
    "empirical_vs_analytic_fp",
    "validate_batch_fp",
    # scenarios
    "make_scenario",
    "scenario_names",
]

#: version of the JSON spec/request dialect shared by the CLI, the
#: solve-service protocol, :meth:`SweepPlan.from_spec` and
#: :meth:`SimulationSpec.from_spec` — see the module docstring
SCHEMA_VERSION = SPEC_SCHEMA_VERSION


def plan_from_spec(spec: Mapping[str, Any]) -> SweepPlan:
    """Build a :class:`SweepPlan` from its JSON/dict spec form.

    The inverse of :func:`plan_to_spec`.  Specs carrying a ``schema``
    field are validated strictly against :data:`SCHEMA_VERSION`.
    """
    return SweepPlan.from_spec(spec)


def plan_to_spec(plan: SweepPlan) -> dict[str, Any]:
    """JSON-compatible dict form of a plan (inverse of
    :func:`plan_from_spec`); always stamped with the current
    :data:`SCHEMA_VERSION` and ``"kind": "sweep"``."""
    return plan.to_spec()


def sim_from_spec(spec: Mapping[str, Any]) -> SimulationSpec:
    """Build a :class:`SimulationSpec` from its JSON/dict spec form.

    The inverse of :func:`sim_to_spec`; same strict schema validation
    as :func:`plan_from_spec`.
    """
    return SimulationSpec.from_spec(spec)


def sim_to_spec(spec: SimulationSpec) -> dict[str, Any]:
    """JSON-compatible dict form of a simulation run (inverse of
    :func:`sim_from_spec`); always stamped with the current
    :data:`SCHEMA_VERSION` and ``"kind": "simulation"``."""
    return spec.to_spec()


def load_spec(
    source: str | os.PathLike[str] | Mapping[str, Any],
) -> SweepPlan | SimulationSpec:
    """Load any versioned spec — sweep or simulation — from one place.

    ``source`` is a mapping, or a path to a JSON file containing one.
    The spec's ``kind`` field picks the object: ``"sweep"`` →
    :class:`SweepPlan`, ``"simulation"`` → :class:`SimulationSpec`.
    Legacy sweep specs without ``kind`` still load as plans (sweeps
    predate the field).
    """
    if isinstance(source, Mapping):
        spec: Any = source
    else:
        with open(source, encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, Mapping):
            raise ReproError(
                f"spec file {os.fspath(source)!r} must contain a JSON "
                f"object, got {type(spec).__name__}"
            )
    kind = spec.get("kind", SPEC_KIND_SWEEP)
    if kind == SPEC_KIND_SWEEP:
        return SweepPlan.from_spec(spec)
    if kind == SPEC_KIND_SIMULATION:
        return SimulationSpec.from_spec(spec)
    raise ReproError(
        f"unknown spec kind {kind!r}; known: "
        f"{SPEC_KIND_SWEEP!r}, {SPEC_KIND_SIMULATION!r}"
    )
