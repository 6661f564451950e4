"""Declarative experiment sessions: the Scenario builder and its results.

This package is the user-facing surface for single runs (grids of runs
live in :mod:`repro.sweep`).  A :class:`Scenario` declares one cell of
the paper's evaluation matrix — group composition, latency model,
workload, consumption, faults, metrics — and ``run`` produces a
:class:`ScenarioResult` that archives losslessly as JSON::

    from repro.scenario import Scenario

    result = (
        Scenario()
        .group(n=5, relation="item-tagging", consensus="oracle")
        .latency("lognormal", mean=0.001)      # heavy-tailed links
        .workload("game", rounds=600)          # calibrated game trace
        .consumers(rate=120)                   # 120 msg/s per member
        .crash(pid=4, at=8.0)                  # crash-stop at t=8s
        .collect("throughput", "purges")
        .run(until=30.0)
    )
    assert result.ok                           # executable spec held
    print(result.metrics["purges"]["total"])
    result.write_json("run.json")              # lossless round trip

Results round-trip: ``ScenarioResult.from_dict(result.to_dict())``
reconstructs the run record, so sweeps and notebooks can archive and
diff runs as plain JSON.  For imperative access (custom callbacks,
mid-run triggers), :meth:`Scenario.build` returns the wired
:class:`LiveScenario` before anything runs::

    live = Scenario().group(n=4).consumers(rate=100).build()
    live.endpoints[1].on_data = lambda msg: print("got", msg.payload)
    result = live.run(until=10.0)

Every named component (relation, consensus, failure detector, latency
model, workload) resolves through :mod:`repro.registry`.  Each build
validates its :class:`~repro.gcs.stack.StackConfig` and wires a fresh
:class:`~repro.gcs.stack.GroupStack`, so two builds share no state.

See :mod:`repro.scenario.builder` for the full fluent API and
:mod:`repro.scenario.result` for the result schema.
"""

from repro.scenario.builder import (
    KNOWN_METRICS,
    LiveScenario,
    Scenario,
    ScenarioError,
)
from repro.scenario.result import (
    SCHEMA_VERSION,
    ScenarioResult,
    serialize_entry,
    serialize_histories,
)

__all__ = [
    "Scenario",
    "LiveScenario",
    "ScenarioError",
    "ScenarioResult",
    "KNOWN_METRICS",
    "SCHEMA_VERSION",
    "serialize_entry",
    "serialize_histories",
]
