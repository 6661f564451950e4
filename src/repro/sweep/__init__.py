"""Parallel parameter sweeps over experiment cells.

The paper's results are grids — load × latency × buffer-size behind
Figures 3–5.  This package runs such grids as first-class objects: a
declarative :class:`~repro.sweep.grid.Sweep` enumerates the cells, a
deterministic executor (:mod:`repro.sweep.executor`) runs them serially or
across a process pool with hash-derived per-replicate seeds, and an
aggregating :class:`~repro.sweep.result.SweepResult` carries mean / 95 % CI
per metric with a lossless JSON round trip.

Reproducing Figure 4(a) is one sweep call::

    from repro.analysis.experiments import figure_4_sweep

    result = figure_4_sweep(workers=4)     # the whole Figure 4 grid
    idle = result.select(consumer_rate=28, semantic=True)
    print(idle.value("producer_idle_pct"))

(or simply ``figure_4a(workers=4)`` — every grid experiment of
:mod:`repro.analysis.experiments` is built on this API).

Full-stack grids use :class:`~repro.sweep.scenario.ScenarioSweep`, whose
cells are declarative :class:`~repro.scenario.Scenario` specs; every cell
is checked against the executable specification of
:mod:`repro.core.spec` as it runs, so a sweep doubles as an invariant
fuzzing harness::

    from repro.sweep import ScenarioSweep

    result = (
        ScenarioSweep(
            base={"until": 10.0, "workload": "game",
                  "workload_params": {"rounds": 300},
                  "consumer_rate": 200.0},
            seeds=3,
        )
        .axis("n", [3, 5, 8])
        .axis("latency_model", ["constant", "lognormal"])
        .run(workers=4)
    )
    assert result.ok                       # SVS/FIFO-SR/... held everywhere
    result.write_json("sweep.json")        # archivable, diffable

Determinism is scheduling-independent: seeds are derived by hashing cell
identity, so ``workers=0`` and ``workers=8`` produce byte-identical
aggregated JSON.  ``workers=N`` runs the cells on a pool of ``N``
processes on this host (:mod:`repro.sweep.dispatch`); a worker that dies
fails the sweep with a :class:`~repro.sweep.grid.SweepError` naming the
runs that did not finish.  See ``docs/sweeps-dispatch.md``.

Repeat runs are memoisable: ``run(..., cache="path/to/dir")`` (or an
explicit :class:`~repro.sweep.cache.SweepCache`) stores every completed
(cell, replicate) as a content-addressed JSON shard keyed by the cell
params, replicate seed, runner identity, context token and a code
fingerprint over ``src/repro/**`` — a warm re-run computes nothing and
merges byte-identically, while any param/seed/code change recomputes
exactly the affected cells.  ``Sweep.dirty_cells(cache, runner)``
partitions a grid into cached/dirty up front, and the ``repro-sweep``
CLI (:mod:`repro.sweep.cli`) reports hit rates and garbage-collects
stale fingerprints.  See ``docs/sweeps-cache.md``.

When a cell dies inside a worker, the raised
:class:`~repro.sweep.executor.SweepCellError` names the failing cell as a
JSON dict plus its replicate and derived seed — copy the dict back into a
single-cell sweep to reproduce.  A shared ``context`` object may expose a
``prepare_worker()`` hook, invoked once per worker process (and once for
serial runs), to warm per-process caches before the first cell runs.

The architecture and the kernel hot path behind cell execution are
documented in ``docs/architecture.md`` and ``docs/kernel.md``.
"""

from repro.sweep.cache import SweepCache, code_fingerprint, context_token
from repro.sweep.executor import (
    SweepCellError,
    SweepInvariantError,
    flatten_metrics,
    run_sweep,
)
from repro.sweep.grid import Sweep, SweepError, canonical_params, derive_seed
from repro.sweep.result import (
    SCHEMA_VERSION,
    CellResult,
    CellRun,
    MetricStats,
    SweepResult,
    summarise,
    t_critical,
)
from repro.sweep.scenario import SCENARIO_CELL_KEYS, ScenarioSweep, scenario_cell

__all__ = [
    "Sweep",
    "SweepCache",
    "SweepError",
    "SweepResult",
    "code_fingerprint",
    "context_token",
    "SweepCellError",
    "SweepInvariantError",
    "CellResult",
    "CellRun",
    "MetricStats",
    "SCHEMA_VERSION",
    "SCENARIO_CELL_KEYS",
    "ScenarioSweep",
    "scenario_cell",
    "run_sweep",
    "flatten_metrics",
    "canonical_params",
    "derive_seed",
    "summarise",
    "t_critical",
]
