"""One scheduling contract, run over both clocks.

The protocol stack talks to time only through ``now``, ``schedule``,
``schedule_at`` and ``cancel``, and runs unchanged on the discrete-event
:class:`~repro.sim.kernel.Simulator` and on the live
:class:`~repro.transport.clock.WallClock`.  Every test in
:class:`TestBothClocks` runs the same schedule on each clock and expects the
same order of callbacks; the wall clock's instants are a few milliseconds
apart so a run stays short.  :class:`TestWallClockOnly` pins what only a
clock over real time has to promise.
"""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.transport.clock import WallClock

#: The instant the tests schedule at, and how long each run lasts.
T = 0.01
UNTIL = 0.05


@pytest.fixture(params=["simulator", "wallclock"])
def clock(request):
    return Simulator(seed=1) if request.param == "simulator" else WallClock(seed=1)


@pytest.mark.timeout(30)
class TestBothClocks:
    def test_same_time_callbacks_fire_in_scheduling_order(self, clock):
        fired = []
        for index in range(64):
            clock.schedule_at(T, fired.append, index)

        def second_burst():
            # Scheduled while the clock runs, not parked before it.
            for index in range(64, 128):
                clock.schedule_at(2 * T, fired.append, index)

        clock.schedule_at(T, second_burst)
        clock.run(until=UNTIL)
        assert fired == list(range(128))

    def test_cancel_before_firing_stops_the_callback(self, clock):
        fired = []
        doomed = clock.schedule_at(T, fired.append, "cancelled")
        clock.schedule_at(T, fired.append, "kept")
        clock.cancel(doomed)
        clock.run(until=UNTIL)
        assert fired == ["kept"]

    def test_cancel_from_an_earlier_callback_at_the_same_instant(self, clock):
        fired = []
        victims = []

        def canceller():
            fired.append("canceller")
            for handle in victims:
                clock.cancel(handle)

        clock.schedule_at(T, canceller)
        victims.extend(clock.schedule_at(T, fired.append, i) for i in range(32))
        clock.run(until=UNTIL)
        assert fired == ["canceller"]

    def test_callback_scheduled_for_now_runs_after_the_current_one(self, clock):
        fired = []

        def first():
            clock.schedule(0.0, fired.append, "inner")
            fired.append("first")

        clock.schedule_at(T, first)
        clock.schedule_at(T, fired.append, "second")
        clock.run(until=UNTIL)
        assert fired == ["first", "second", "inner"]

    def test_schedule_at_in_the_past_raises(self, clock):
        refused = []

        def probe():
            with pytest.raises(SimulationError, match="cannot schedule at"):
                clock.schedule_at(T / 2, lambda: None)
            refused.append(clock.now)

        clock.schedule_at(T, probe)
        clock.run(until=UNTIL)
        assert len(refused) == 1

    def test_no_callback_fires_before_its_time(self, clock):
        early = []

        def check(due):
            if clock.now < due:
                early.append((due, clock.now))

        for index in range(200):
            due = T + index * 0.000137
            clock.schedule_at(due, check, due)
        clock.run(until=UNTIL)
        assert early == []


@pytest.mark.timeout(30)
class TestWallClockOnly:
    def test_parked_handles_are_armed_at_their_absolute_times(self):
        clock = WallClock()
        fired = []

        def record(due):
            fired.append((due, clock.now))

        for due in (0.03, 0.01, 0.02):
            clock.schedule_at(due, record, due)
        clock.schedule(0.015, record, 0.015)
        clock.cancel(clock.schedule_at(0.012, record, 0.012))
        clock.run(until=UNTIL)
        assert [due for due, _ in fired] == [0.01, 0.015, 0.02, 0.03]
        assert all(now >= due for due, now in fired)

    def test_a_callback_exception_aborts_the_run_and_is_reraised(self):
        clock = WallClock()
        fired = []

        def boom():
            raise RuntimeError("kaboom")

        clock.schedule_at(T, boom)
        clock.schedule_at(T, fired.append, "same instant")
        clock.schedule_at(2 * T, fired.append, "later")
        with pytest.raises(RuntimeError, match="kaboom"):
            clock.run(until=5.0)
        assert fired == []
        assert clock.now < 1.0
