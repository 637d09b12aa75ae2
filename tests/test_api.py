"""Public API surface tests: everything advertised must import and work."""

import importlib

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.algorithms",
            "repro.algorithms.mono",
            "repro.algorithms.bicriteria",
            "repro.algorithms.heuristics",
            "repro.reductions",
            "repro.simulation",
            "repro.workloads",
            "repro.extensions",
            "repro.analysis",
            "repro.cli",
        ],
    )
    def test_submodules_export_all(self, module):
        mod = importlib.import_module(module)
        assert hasattr(mod, "__all__")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_quickstart_from_docstring(self):
        """The module docstring's quickstart must actually run."""
        from repro import (
            IntervalMapping,
            PipelineApplication,
            Platform,
            evaluate,
        )

        app = PipelineApplication(works=(2, 2), volumes=(100, 100, 100))
        platform = Platform.communication_homogeneous(
            speeds=[2.0, 1.0],
            bandwidth=10.0,
            failure_probabilities=[0.2, 0.1],
        )
        mapping = IntervalMapping.single_interval(app.num_stages, {1, 2})
        ev = evaluate(mapping, app, platform)
        assert ev.latency > 0
        assert 0 <= ev.failure_probability <= 1

    def test_exception_hierarchy(self):
        from repro import (
            InfeasibleProblemError,
            InvalidApplicationError,
            InvalidMappingError,
            InvalidPlatformError,
            ReproError,
            SimulationError,
            SolverError,
        )

        for exc in (
            InvalidApplicationError,
            InvalidPlatformError,
            InvalidMappingError,
            InfeasibleProblemError,
            SolverError,
            SimulationError,
        ):
            assert issubclass(exc, ReproError)

    def test_public_items_documented(self):
        """Every public callable/class carries a docstring."""
        import inspect

        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name} lacks a docstring"


class TestStableFacade:
    """``repro.api`` — the supported import surface (PR 8)."""

    def test_all_names_resolve(self):
        from repro import api

        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.{name}"

    def test_schema_version_is_shared(self):
        """One version number across the facade, the sweep-spec dialect
        and the service protocol."""
        from repro import api
        from repro.engine.sweeps import SPEC_SCHEMA_VERSION
        from repro.service.protocol import PROTOCOL_VERSION

        assert isinstance(api.SCHEMA_VERSION, int)
        assert api.SCHEMA_VERSION == SPEC_SCHEMA_VERSION
        assert api.SCHEMA_VERSION == PROTOCOL_VERSION

    def test_facade_names_are_engine_objects(self):
        """The facade re-exports, it does not fork: identity must hold
        so isinstance checks work across both import paths."""
        from repro import api

        for name, module in (
            ("solve", "registry"),
            ("run_batch", "batch"),
            ("iter_batch", "batch"),
            ("run_sweep", "sweeps"),
            ("iter_sweep", "sweeps"),
            ("open_store", "store"),
            ("record_run", "recorder"),
            ("replay_run", "replay"),
            ("BatchTask", "batch"),
            ("BatchPolicy", "policy"),
            ("ErrorKind", "policy"),
            ("SweepPlan", "sweeps"),
        ):
            deep = importlib.import_module(f"repro.engine.{module}")
            assert getattr(api, name) is getattr(deep, name), name

    def test_facade_names_are_simulation_objects(self):
        """Same identity guarantee for the simulation surface."""
        from repro import api, simulation
        from repro.simulation import dynamic

        for name in (
            "run_simulation",
            "iter_simulation",
            "resolve_mapping",
            "SimulationSpec",
            "SimulationResult",
            "EpochReport",
            "PlatformEvent",
            "RemapOutcome",
        ):
            assert getattr(api, name) is getattr(dynamic, name), name
            assert getattr(api, name) is getattr(simulation, name), name
        for name in (
            "simulate_stream",
            "realized_latency",
            "check_one_port",
            "validate_batch_fp",
            "estimate_failure_probability",
        ):
            assert getattr(api, name) is getattr(simulation, name), name

    def test_engine_all_resolves_without_warnings(self):
        """Every name ``repro.engine`` advertises is really bound there:
        no lazy, warning-emitting re-exports of facade names."""
        import warnings

        from repro import engine

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in engine.__all__:
                getattr(engine, name)

    def test_deep_module_paths_stay_warning_free(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.engine.batch import run_batch  # noqa: F401
            from repro.engine.registry import solve  # noqa: F401
            from repro.engine.sweeps import SweepPlan  # noqa: F401

    def test_plan_spec_round_trip_helpers(self):
        from repro import api

        spec = {
            "instances": [{"scenario": "edge-hub-cloud", "seed": 1}],
            "solvers": ["greedy-min-fp"],
            "thresholds": [30.0, 60.0],
        }
        plan = api.plan_from_spec(spec)
        wire = api.plan_to_spec(plan)
        assert wire["schema"] == api.SCHEMA_VERSION
        assert wire["kind"] == "sweep"
        assert api.plan_to_spec(api.plan_from_spec(wire)) == wire

    def test_sim_spec_round_trip_helpers(self):
        from repro import api

        spec = {
            "instance": {"scenario": "failure-mix", "seed": 1},
            "solver": "greedy-min-fp",
            "threshold": 50.0,
        }
        sim = api.sim_from_spec(spec)
        wire = api.sim_to_spec(sim)
        assert wire["schema"] == api.SCHEMA_VERSION
        assert wire["kind"] == "simulation"
        assert api.sim_to_spec(api.sim_from_spec(wire)) == wire

    def test_load_spec_dispatches_both_kinds(self, tmp_path):
        import json

        from repro import api

        sweep = {
            "instances": [{"scenario": "failure-mix", "seed": 1}],
            "solvers": ["greedy-min-fp"],
            "thresholds": [50.0],
        }
        sim = {
            "kind": "simulation",
            "instance": {"scenario": "failure-mix", "seed": 1},
            "solver": "greedy-min-fp",
            "threshold": 50.0,
        }
        assert isinstance(api.load_spec(sweep), api.SweepPlan)
        assert isinstance(api.load_spec(sim), api.SimulationSpec)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(sim))
        assert isinstance(api.load_spec(path), api.SimulationSpec)
        assert isinstance(api.load_spec(str(path)), api.SimulationSpec)

    def test_solve_through_facade(self):
        from repro import api
        from tests.helpers import make_instance

        app, plat = make_instance("comm-homogeneous", 3, 3, seed=5)
        result = api.solve("greedy-min-fp", app, plat, threshold=60.0)
        assert result.latency <= 60.0

    def test_deep_import_paths_keep_working(self):
        from repro.engine.batch import run_batch  # noqa: F401
        from repro.engine.sweeps import SweepPlan  # noqa: F401
        from repro.simulation import run_simulation  # noqa: F401
        from repro.simulation.dynamic import iter_simulation  # noqa: F401
