"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_overrides_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "late", priority=1)
        sim.schedule(1.0, order.append, "early", priority=-1)
        sim.run()
        assert order == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert seen == [0, 1, 2, 3]

    def test_zero_delay_event_runs_after_current(self):
        sim = Simulator()
        order = []

        def first():
            sim.schedule(0.0, order.append, "nested")
            order.append("first")

        sim.schedule(0.0, first)
        sim.schedule(0.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, seen.append, "x")
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_does_not_affect_other_events(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, seen.append, "dead")
        sim.schedule(1.0, seen.append, "alive")
        handle.cancel()
        sim.run()
        assert seen == ["alive"]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(5.0, seen.append, "b")
        sim.run(until=2.0)
        assert seen == ["a"]
        assert sim.now == 2.0

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "edge")
        sim.run(until=2.0)
        assert seen == ["edge"]

    def test_run_resumes_where_it_left(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(3.0, seen.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert seen == ["a", "b"]

    def test_max_events_bound(self):
        sim = Simulator()
        seen = []
        for i in range(10):
            sim.schedule(float(i), seen.append, i)
        sim.run(max_events=4)
        assert seen == [0, 1, 2, 3]

    def test_stop_inside_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: (seen.append("a"), sim.stop()))
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen[0] == "a"
        assert "b" not in seen

    def test_run_not_reentrant(self):
        sim = Simulator()

        def bad():
            sim.run()

        sim.schedule(0.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_executes_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(2.0, seen.append, 2)
        assert sim.step()
        assert seen == [1]
        assert sim.step()
        assert not sim.step()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3


class TestRandomness:
    def test_named_streams_are_deterministic(self):
        a = Simulator(seed=42).rng("net").random()
        b = Simulator(seed=42).rng("net").random()
        assert a == b

    def test_different_names_give_different_streams(self):
        sim = Simulator(seed=42)
        assert sim.rng("a").random() != sim.rng("b").random()

    def test_same_name_returns_same_generator(self):
        sim = Simulator()
        assert sim.rng("x") is sim.rng("x")

    def test_seed_changes_stream(self):
        a = Simulator(seed=1).rng().random()
        b = Simulator(seed=2).rng().random()
        assert a != b

