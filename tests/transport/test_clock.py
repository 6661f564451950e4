"""WallClock: the Simulator scheduling surface over real time."""

import statistics

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.transport.clock import WallClock


class TestSchedulingSurface:
    @pytest.mark.timeout(30)
    def test_prestart_events_fire_in_order(self):
        clock = WallClock()
        fired = []
        clock.schedule(0.02, fired.append, "b")
        clock.schedule(0.01, fired.append, "a")
        clock.schedule_at(0.03, fired.append, "c")
        clock.run(until=0.08)
        assert fired == ["a", "b", "c"]
        assert clock.events_processed == 3
        assert clock.now >= 0.08

    @pytest.mark.timeout(30)
    def test_cancel_before_and_during_run(self):
        clock = WallClock()
        fired = []
        early = clock.schedule(0.01, fired.append, "early")
        clock.cancel(early)
        late = clock.schedule(0.06, fired.append, "late")
        clock.schedule(0.01, late.cancel)
        clock.schedule(0.02, lambda: fired.append("kept"))
        clock.run(until=0.08)
        assert fired == ["kept"]

    @pytest.mark.timeout(30)
    def test_reschedule_from_callback(self):
        clock = WallClock()
        fired = []

        def tick(n):
            fired.append(n)
            if n < 3:
                clock.schedule(0.005, tick, n + 1)

        clock.schedule(0.0, tick, 1)
        clock.run(until=0.1)
        assert fired == [1, 2, 3]

    def test_negative_delay_rejected(self):
        clock = WallClock()
        with pytest.raises(SimulationError, match="negative delay"):
            clock.schedule(-0.1, lambda: None)
        with pytest.raises(SimulationError, match="cannot schedule at"):
            clock.schedule_at(-1.0, lambda: None)

    def test_priority_accepted_and_ignored(self):
        clock = WallClock()
        handle = clock.schedule(0.5, lambda: None, priority=-3)
        assert not handle.cancelled


class TestRunContract:
    def test_run_needs_until(self):
        with pytest.raises(SimulationError, match="explicit"):
            WallClock().run()

    def test_max_events_rejected(self):
        with pytest.raises(SimulationError, match="max_events"):
            WallClock().run(until=0.1, max_events=5)

    @pytest.mark.timeout(30)
    def test_one_shot(self):
        clock = WallClock()
        clock.run(until=0.01)
        with pytest.raises(SimulationError, match="one-shot"):
            clock.run(until=0.01)

    def test_stop_unsupported(self):
        with pytest.raises(SimulationError, match="stopped"):
            WallClock().stop()

    @pytest.mark.timeout(30)
    def test_callback_error_aborts_and_reraises(self):
        clock = WallClock()

        def boom():
            raise RuntimeError("kaboom")

        clock.schedule(0.0, boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            clock.run(until=5.0)
        # The failing run still counts as the one shot.
        with pytest.raises(SimulationError, match="one-shot"):
            clock.run(until=0.01)

    @pytest.mark.timeout(30)
    def test_aborted_run_reports_actual_elapsed_not_full_duration(self):
        # A callback error at t≈0 aborts the run; the frozen clock must
        # report how far the run actually got, not clamp up to `until`
        # and pretend the full duration elapsed.
        clock = WallClock()
        clock.schedule(0.0, self._boom)
        with pytest.raises(RuntimeError, match="early abort"):
            clock.run(until=30.0)
        assert clock.now < 5.0, (
            f"failed run reported a full-duration clock: now={clock.now}"
        )

    @staticmethod
    def _boom():
        raise RuntimeError("early abort")

    @pytest.mark.timeout(30)
    def test_clean_run_still_clamps_to_until(self):
        clock = WallClock()
        clock.run(until=0.01)
        assert clock.now >= 0.01

    @pytest.mark.timeout(30)
    def test_runner_lifecycle(self):
        clock = WallClock()
        events = []

        class Runner:
            async def start(self):
                events.append("start")

            async def close(self):
                events.append("close")

        clock.add_runner(Runner())
        clock.schedule(0.0, events.append, "tick")
        clock.run(until=0.02)
        assert events == ["start", "tick", "close"]


class TestTimerPrecision:
    @pytest.mark.timeout(30)
    def test_median_lateness_is_well_under_a_millisecond(self):
        # 300 timers 0.37 ms apart: a loop that waits in whole milliseconds
        # fires them about half a millisecond late.  The median, not a
        # tail, so a host stall cannot decide the outcome.
        clock = WallClock()
        lateness = []

        def record(due):
            lateness.append(clock.now - due)

        for index in range(300):
            due = 0.01 + index * 0.00037
            clock.schedule_at(due, record, due)
        clock.run(until=0.13)
        assert len(lateness) == 300
        assert min(lateness) >= 0.0
        assert statistics.median(lateness) <= 0.00025


class TestRandomStreams:
    def test_same_derivation_as_kernel(self):
        sim = Simulator(seed=123)
        clock = WallClock(seed=123)
        assert clock.seed == 123
        for name in ("svs", "transport.0.1", "faults.2.0"):
            assert clock.rng(name).random() == sim.rng(name).random()

    def test_streams_independent_and_stable(self):
        clock = WallClock(seed=7)
        a1 = clock.rng("a")
        assert clock.rng("a") is a1
        assert clock.rng("a").random() != WallClock(seed=8).rng("a").random()
