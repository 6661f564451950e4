"""Discrete-event simulation substrate.

Everything in the reproduction executes on this substrate: a deterministic
event-driven :class:`~repro.sim.kernel.Simulator`, crash-stop
:class:`~repro.sim.process.SimProcess` participants, a reliable-FIFO
:class:`~repro.sim.network.Network` with an optional lossy/partitionable
link layer, and the perturbation windows of :mod:`repro.sim.failure` that
the declarative plans of :mod:`repro.faults` install.
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
from repro.sim.failure import Perturbation, PerturbationSchedule, ScheduleError

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
    "Perturbation",
    "PerturbationSchedule",
    "ScheduleError",
]
