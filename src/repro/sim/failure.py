"""Perturbation windows and the validation shared by fault schedules.

The paper's *performance perturbations* — a process (or its disk,
scheduler, VM subsystem, ...) transiently slows down or stalls *without*
being faulty (Sections 1-2) — are the phenomenon SVS is designed to
absorb.  :class:`PerturbationSchedule` injects them by pausing/resuming a
*rate-limited consumer* (anything exposing ``pause()``/``resume()``),
driven off the simulator so experiments are reproducible.

Build schedules with :class:`repro.faults.FaultPlan`, which installs its
:class:`~repro.faults.Perturb` events through this reference-counted
pause/resume machinery and also expresses crashes, partitions, lossy
links and rejoin churn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.sim.kernel import Simulator

__all__ = [
    "Pausable",
    "ScheduleError",
    "check_time",
    "check_positive",
    "Perturbation",
    "PerturbationSchedule",
]


class ScheduleError(ValueError, RuntimeError):
    """An invalid perturbation schedule: bad times or a double install.

    Subclasses both :class:`ValueError` (the documented contract shared
    with :class:`repro.faults.FaultPlan`) and :class:`RuntimeError` (what
    a double ``install()`` originally raised), so either ``except`` clause
    catches it.
    """


def check_time(value: float, what: str, exc: type = ScheduleError) -> None:
    """Reject anything but a finite non-negative number (NaN fails the
    ``>= 0`` comparison).  Shared by :class:`PerturbationSchedule` and
    :mod:`repro.faults` so the two validation surfaces cannot diverge."""
    if not isinstance(value, (int, float)) or not (value >= 0):
        raise exc(f"{what} must be a non-negative number: {value!r}")
    if math.isinf(value):
        raise exc(f"{what} must be finite: {value!r}")


def check_positive(value: float, what: str, exc: type = ValueError) -> None:
    """Reject anything but a finite strictly-positive number (NaN fails
    the ``> 0`` comparison).  Shared by the retry/interval knobs across
    the stack so their validation cannot diverge either."""
    if (
        not isinstance(value, (int, float))
        or not (value > 0)
        or math.isinf(value)
    ):
        raise exc(f"{what} must be a positive finite number: {value!r}")


class Pausable(Protocol):
    """Anything whose progress can be suspended and resumed."""

    def pause(self) -> None: ...

    def resume(self) -> None: ...


@dataclass(frozen=True)
class Perturbation:
    """A transient stall: the target makes no progress in [start, start+duration)."""

    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class PerturbationSchedule:
    """Apply a sequence of :class:`Perturbation` windows to a pausable target.

    Overlapping perturbations are merged implicitly: pause/resume calls are
    reference-counted so nested windows behave sensibly.
    """

    def __init__(
        self,
        sim: Simulator,
        target: Pausable,
        perturbations: Sequence[Perturbation],
    ) -> None:
        self.sim = sim
        self.target = target
        self.perturbations = list(perturbations)
        self._depth = 0
        self._installed = False

    def install(self) -> None:
        if self._installed:
            raise ScheduleError("perturbation schedule already installed")
        for p in self.perturbations:
            check_time(p.start, "perturbation start")
            check_time(p.duration, "perturbation duration")
        self._installed = True
        for p in self.perturbations:
            self.sim.schedule_at(p.start, self._pause)
            self.sim.schedule_at(p.end, self._resume)

    def _pause(self) -> None:
        self._depth += 1
        if self._depth == 1:
            self.target.pause()

    def _resume(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self.target.resume()

    @property
    def total_stall_time(self) -> float:
        """Total stalled duration assuming no overlap (diagnostic)."""
        return sum(p.duration for p in self.perturbations)

