"""Discrete-event simulation substrate.

Everything in the reproduction executes on this substrate: a deterministic
event-driven :class:`~repro.sim.kernel.Simulator`, crash-stop
:class:`~repro.sim.process.SimProcess` participants, a reliable-FIFO
:class:`~repro.sim.network.Network` with an optional lossy/partitionable
link layer, and the legacy fault/perturbation schedules in
:mod:`repro.sim.failure` (superseded by the declarative plans of
:mod:`repro.faults`).
"""

from repro.sim.kernel import Event, EventHandle, SimulationError, Simulator
from repro.sim.network import (
    ConstantLatency,
    LatencyModel,
    LinkFaultPolicy,
    LognormalLatency,
    Network,
    UniformLatency,
)
from repro.sim.process import ProcessId, ProcessRegistry, SimProcess
from repro.sim.failure import (
    CrashSchedule,
    Perturbation,
    PerturbationSchedule,
    ScheduleError,
    periodic_perturbations,
)

__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "EventHandle",
    "Network",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LognormalLatency",
    "ProcessId",
    "SimProcess",
    "ProcessRegistry",
    "LinkFaultPolicy",
    "CrashSchedule",
    "Perturbation",
    "PerturbationSchedule",
    "ScheduleError",
    "periodic_perturbations",
]
