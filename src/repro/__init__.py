"""Semantic View Synchrony — a reproduction of Pereira, Rodrigues & Oliveira,
"Reducing the Cost of Group Communication with Semantic View Synchrony",
DSN 2002.

Quick start — declare a whole experiment session with the Scenario API::

    from repro import Scenario

    result = (
        Scenario()
        .group(n=5, relation="item-tagging", consensus="oracle")
        .latency("lognormal", mean=0.001)
        .workload("game", rounds=600)          # calibrated Quake-like trace
        .consumers(rate=120)                   # everyone consumes at 120 msg/s
        .perturb(pid=2, at=5.0, duration=1.0)  # transient stall (Section 2)
        .crash(pid=4, at=8.0)                  # crash-stop failure
        .view_change(at=8.5)                   # reconfigure the group
        .collect("throughput", "queue_depth", "view_changes")
        .run(until=30.0)
    )
    assert result.ok                           # the executable spec held
    result.write_json("run.json")

Every named component — relation, consensus protocol, failure detector,
latency model, workload — resolves through :mod:`repro.registry`, so
third-party backends plug in with a decorator.  Every run, a Scenario's
included, builds one :class:`GroupStack` from a relation and a
:class:`StackConfig`; hand-wired setups build it the same way::

    from repro import GroupStack, ItemTagging, StackConfig

    stack = GroupStack(ItemTagging(), StackConfig(n=3, consensus="oracle"))
    stack[0].multicast(payload={"x": 1}, annotation=7)   # item tag 7
    stack.run(until=1.0)
    print(stack[1].drain())

Package layout:

* :mod:`repro.core` — the paper's contribution: obsolescence relations and
  representations, purgeable buffers, the SVS protocol (Figure 1), and the
  executable specification.
* :mod:`repro.sim` — discrete-event simulation substrate.
* :mod:`repro.transport` — real-time substrate for live runs: asyncio
  wall clock, loopback/UDP transport backends, wire framing, and the
  sync/retransmission runtime (``Scenario.transport("loopback")``).
* :mod:`repro.fd`, :mod:`repro.consensus` — failure detection and consensus
  building blocks.
* :mod:`repro.gcs` — assembled group communication stack and endpoints.
* :mod:`repro.registry` — named component registries (the plugin surface).
* :mod:`repro.scenario` — declarative experiment sessions over the stack.
* :mod:`repro.replication` — primary-backup replication over SVS.
* :mod:`repro.workload` — the calibrated game-trace generator (Section 5.2).
* :mod:`repro.analysis` — the throughput model and per-figure experiment
  harness (Section 5.3–5.4).
"""

from repro.core import (
    BatchAssembler,
    BatchEncoder,
    DataMessage,
    DeliveryQueue,
    EmptyRelation,
    EnumerationEncoder,
    HistoryRecorder,
    InitMessage,
    ItemTagging,
    ItemUpdate,
    KEnumeration,
    KEnumerationEncoder,
    MessageEnumeration,
    MessageId,
    ObsolescenceRelation,
    PredMessage,
    SVSListeners,
    SVSProcess,
    View,
    ViewDelivery,
    check_all,
    check_classic_vs,
    check_fifo_sr,
    check_integrity,
    check_svs,
    check_view_agreement,
)
from repro.faults import (
    Crash,
    FaultPlan,
    FaultPlanError,
    Heal,
    LinkFault,
    Partition,
    Perturb,
    Recover,
    ViewChange,
)
from repro.gcs import (
    GroupEndpoint,
    GroupStack,
    RateLimitedConsumer,
    StackConfig,
)
from repro.registry import (
    consensus_protocols,
    failure_detectors,
    fault_profiles,
    latency_models,
    relations,
    workloads,
)
from repro.scenario import LiveScenario, Scenario, ScenarioError, ScenarioResult
from repro.sim import LognormalLatency, Network, Simulator
from repro.sweep import (
    ScenarioSweep,
    Sweep,
    SweepError,
    SweepInvariantError,
    SweepResult,
    scenario_cell,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # core types
    "MessageId",
    "View",
    "DataMessage",
    "ViewDelivery",
    "InitMessage",
    "PredMessage",
    # relations
    "ObsolescenceRelation",
    "EmptyRelation",
    "ItemTagging",
    "MessageEnumeration",
    "EnumerationEncoder",
    "KEnumeration",
    "KEnumerationEncoder",
    # structures
    "DeliveryQueue",
    "ItemUpdate",
    "BatchEncoder",
    "BatchAssembler",
    # protocol
    "SVSProcess",
    "SVSListeners",
    "HistoryRecorder",
    "check_svs",
    "check_fifo_sr",
    "check_integrity",
    "check_view_agreement",
    "check_classic_vs",
    "check_all",
    # stack
    "GroupStack",
    "StackConfig",
    "GroupEndpoint",
    "RateLimitedConsumer",
    # scenarios
    "Scenario",
    "LiveScenario",
    "ScenarioError",
    "ScenarioResult",
    # fault injection
    "FaultPlan",
    "FaultPlanError",
    "Crash",
    "Recover",
    "Partition",
    "Heal",
    "LinkFault",
    "Perturb",
    "ViewChange",
    # sweeps
    "Sweep",
    "ScenarioSweep",
    "SweepResult",
    "SweepError",
    "SweepInvariantError",
    "scenario_cell",
    # registries
    "latency_models",
    "relations",
    "consensus_protocols",
    "failure_detectors",
    "workloads",
    "fault_profiles",
    "transports",
    # substrate
    "Simulator",
    "Network",
    "LognormalLatency",
]


def __getattr__(name: str):
    # ``repro.transports`` resolves on first use: the transport package
    # (asyncio, sockets) registers its backends on import, and nothing
    # simulated needs it.
    if name == "transports":
        from repro.transport import transports

        return transports
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
