"""The public surface of parallel sweeps: ``workers=N`` and nothing else.

A sweep picks its parallelism with one option, ``workers``; the pool is
the only parallel path.  These tests pin that surface at every entry
point that forwards to :func:`repro.sweep.run_sweep` — the executor,
``Sweep.run``/``ScenarioSweep.run`` and the figure functions — so a
second way to choose an executor cannot creep back in unnoticed.
"""

import dataclasses
import inspect

import pytest

import repro.analysis.experiments as experiments
import repro.registry as registry
import repro.sweep as sweep_pkg
from repro.sweep import ScenarioSweep, Sweep, run_sweep
from repro.sweep.cells import arithmetic_cell
from repro.workload import Trace, portable_workload

#: Executor-selection knobs that no entry point accepts.
GONE = ("dispatch", "dispatch_params", "mp_context", "chunksize")

FIGURE_FUNCTIONS = sorted(
    name
    for name, fn in vars(experiments).items()
    if inspect.isfunction(fn)
    and fn.__module__ == experiments.__name__
    and not name.startswith("_")
    and "workers" in inspect.signature(fn).parameters
)


def tiny_sweep():
    return Sweep(base={"k": 2}).axis("x", [1, 2])


def call_run_sweep(**kwargs):
    return run_sweep(tiny_sweep(), arithmetic_cell, **kwargs)


def call_sweep_run(**kwargs):
    return tiny_sweep().run(arithmetic_cell, **kwargs)


def call_scenario_sweep_run(**kwargs):
    return ScenarioSweep(base={"until": 1.0}).axis("n", [3]).run(**kwargs)


class TestExecutorOptions:
    def test_run_sweep_takes_six_keyword_options(self):
        params = list(inspect.signature(run_sweep).parameters)
        assert params == [
            "sweep",
            "runner",
            "workers",
            "context",
            "on_violation",
            "keep_results",
            "progress",
            "cache",
        ]

    @pytest.mark.parametrize("knob", GONE)
    @pytest.mark.parametrize(
        "entry",
        [call_run_sweep, call_sweep_run, call_scenario_sweep_run],
        ids=["run_sweep", "Sweep.run", "ScenarioSweep.run"],
    )
    def test_removed_knob_is_rejected(self, entry, knob):
        with pytest.raises(TypeError, match=knob):
            entry(workers=2, **{knob: None})


class TestForwardingEntryPoints:
    def test_figure_functions_found(self):
        assert "figure_4_sweep" in FIGURE_FUNCTIONS
        assert len(FIGURE_FUNCTIONS) >= 9

    @pytest.mark.parametrize("name", FIGURE_FUNCTIONS)
    def test_figure_function_forwards_workers_only(self, name):
        params = inspect.signature(getattr(experiments, name)).parameters
        assert params["workers"].default is None
        assert "cache" in params
        assert not [knob for knob in GONE if knob in params]

    def test_no_sharded_entry_point(self):
        """Sharded scenarios were a second caller of the pool; they are gone."""
        import repro.scenario as scenario_pkg

        with pytest.raises(ImportError):
            import repro.scenario.sharding  # noqa: F401
        assert not {"run_sharded", "ShardedResult"} & set(dir(scenario_pkg))


class TestNoBackendSeam:
    def test_no_dispatch_backend_registry(self):
        assert not hasattr(registry, "dispatch_backends")

    def test_sweep_package_exports_no_backends(self):
        exported = set(sweep_pkg.__all__)
        assert "run_sweep" in exported and "Sweep" in exported
        assert not [name for name in exported if "Dispatch" in name]

    def test_portable_workload_is_the_registered_trace(self):
        trace = portable_workload("game", rounds=50)
        assert trace == registry.workloads.create("game", rounds=50)
        assert trace.cache_token() == portable_workload(
            "game", rounds=50
        ).cache_token()

    def test_trace_carries_no_worker_recipe(self):
        fields = {f.name for f in dataclasses.fields(Trace)}
        assert "recipe" not in fields
        assert not hasattr(Trace, "worker_recipe")
