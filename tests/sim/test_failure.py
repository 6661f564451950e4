"""Unit tests for perturbation injection and the shared time checks."""

import math

import pytest

from repro.sim.failure import (
    Perturbation,
    PerturbationSchedule,
    ScheduleError,
    check_positive,
    check_time,
)
from repro.sim.kernel import Simulator


class FakePausable:
    def __init__(self):
        self.log = []

    def pause(self):
        self.log.append("pause")

    def resume(self):
        self.log.append("resume")


class TestPerturbationSchedule:
    def test_pause_resume_cycle(self):
        sim = Simulator()
        target = FakePausable()
        PerturbationSchedule(sim, target, [Perturbation(1.0, 0.5)]).install()
        sim.run()
        assert target.log == ["pause", "resume"]

    def test_overlapping_windows_merge(self):
        sim = Simulator()
        target = FakePausable()
        schedule = PerturbationSchedule(
            sim,
            target,
            [Perturbation(1.0, 2.0), Perturbation(2.0, 2.0)],
        )
        schedule.install()
        sim.run()
        # One logical pause from 1.0 to 4.0, not two.
        assert target.log == ["pause", "resume"]

    def test_disjoint_windows_each_cycle(self):
        sim = Simulator()
        target = FakePausable()
        PerturbationSchedule(
            sim, target, [Perturbation(1.0, 0.5), Perturbation(3.0, 0.5)]
        ).install()
        sim.run()
        assert target.log == ["pause", "resume", "pause", "resume"]

    def test_pauses_and_resumes_at_scheduled_times(self):
        sim = Simulator()
        times = []

        class Clocked:
            def pause(self):
                times.append(("pause", sim.now))

            def resume(self):
                times.append(("resume", sim.now))

        PerturbationSchedule(
            sim, Clocked(), [Perturbation(1.0, 0.5), Perturbation(2.0, 1.0)]
        ).install()
        sim.run(until=1.25)
        assert times == [("pause", 1.0)]
        sim.run()
        assert times == [
            ("pause", 1.0),
            ("resume", 1.5),
            ("pause", 2.0),
            ("resume", 3.0),
        ]

    def test_invalid_window_leaves_nothing_scheduled(self):
        """Validation happens before any scheduling: a bad window late in
        the list must not half-install the schedule."""
        sim = Simulator()
        target = FakePausable()
        schedule = PerturbationSchedule(
            sim, target, [Perturbation(1.0, 0.5), Perturbation(math.nan, 1.0)]
        )
        with pytest.raises(ScheduleError):
            schedule.install()
        sim.run(until=5.0)
        assert target.log == []

    def test_rejected_install_can_be_retried_after_fixing(self):
        """A failed install does not count as installed."""
        sim = Simulator()
        target = FakePausable()
        schedule = PerturbationSchedule(sim, target, [Perturbation(-1.0, 0.5)])
        with pytest.raises(ScheduleError):
            schedule.install()
        schedule.perturbations = [Perturbation(1.0, 0.5)]
        schedule.install()
        sim.run()
        assert target.log == ["pause", "resume"]

    def test_zero_length_window_still_cycles(self):
        sim = Simulator()
        target = FakePausable()
        PerturbationSchedule(sim, target, [Perturbation(1.0, 0.0)]).install()
        sim.run()
        assert target.log == ["pause", "resume"]

    def test_empty_schedule_touches_nothing(self):
        sim = Simulator()
        target = FakePausable()
        schedule = PerturbationSchedule(sim, target, [])
        schedule.install()
        sim.run()
        assert target.log == []
        assert schedule.total_stall_time == 0

    def test_negative_duration_rejected(self):
        sim = Simulator()
        schedule = PerturbationSchedule(
            sim, FakePausable(), [Perturbation(1.0, -1.0)]
        )
        with pytest.raises(ValueError):
            schedule.install()

    def test_total_stall_time(self):
        sim = Simulator()
        schedule = PerturbationSchedule(
            sim, FakePausable(), [Perturbation(0.0, 1.0), Perturbation(5.0, 2.0)]
        )
        assert schedule.total_stall_time == 3.0

    @pytest.mark.parametrize("exc", [RuntimeError, ValueError])
    def test_double_install_rejected(self, exc):
        """ScheduleError subclasses both, so either except clause works."""
        sim = Simulator()
        schedule = PerturbationSchedule(sim, FakePausable(), [])
        schedule.install()
        with pytest.raises(exc):
            schedule.install()

    @pytest.mark.parametrize("bad_start", [-0.5, math.nan, math.inf, "soon"])
    def test_invalid_start_rejected(self, bad_start):
        sim = Simulator()
        schedule = PerturbationSchedule(
            sim, FakePausable(), [Perturbation(bad_start, 1.0)]
        )
        with pytest.raises(ScheduleError):
            schedule.install()

    @pytest.mark.parametrize("bad_duration", [math.inf, "long", None])
    def test_invalid_duration_rejected(self, bad_duration):
        sim = Simulator()
        schedule = PerturbationSchedule(
            sim, FakePausable(), [Perturbation(1.0, bad_duration)]
        )
        with pytest.raises(ScheduleError, match="perturbation duration"):
            schedule.install()

    def test_nan_duration_rejected(self):
        sim = Simulator()
        schedule = PerturbationSchedule(
            sim, FakePausable(), [Perturbation(1.0, math.nan)]
        )
        with pytest.raises(ScheduleError):
            schedule.install()


class TestPerturbation:
    def test_end_property(self):
        p = Perturbation(2.0, 0.75)
        assert p.end == 2.75


class TestCheckTime:
    """The non-negative time check shared with :mod:`repro.faults`."""

    @pytest.mark.parametrize("value", [0, 0.0, 3, 2.5])
    def test_accepts_finite_non_negative(self, value):
        check_time(value, "t")

    @pytest.mark.parametrize(
        "value", [-1, -0.5, math.nan, math.inf, -math.inf, "soon", None]
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(ScheduleError, match="start"):
            check_time(value, "start")

    def test_raises_the_callers_exception(self):
        class PlanError(ValueError):
            pass

        with pytest.raises(PlanError, match="Crash.at"):
            check_time(-1.0, "Crash.at", PlanError)


class TestCheckPositive:
    """The strictly-positive check shared by the retry/interval knobs."""

    @pytest.mark.parametrize("value", [1, 0.5, 1e-9])
    def test_accepts_finite_positive(self, value):
        check_positive(value, "retry")

    @pytest.mark.parametrize(
        "value", [0, 0.0, -1, math.nan, math.inf, "1", None]
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="retry"):
            check_positive(value, "retry")

    def test_raises_the_callers_exception(self):
        with pytest.raises(ScheduleError):
            check_positive(0, "interval", ScheduleError)


class TestRetiredSchedules:
    """Crashes are scheduled through :class:`repro.faults.FaultPlan` only."""

    @pytest.mark.parametrize("name", ["CrashSchedule", "periodic_perturbations"])
    def test_gone_from_the_package(self, name):
        import repro.sim
        import repro.sim.failure

        assert not hasattr(repro.sim.failure, name)
        assert not hasattr(repro.sim, name)
        assert name not in repro.sim.__all__
