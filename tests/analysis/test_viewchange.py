"""Tests for the loaded view-change experiment."""

import pytest

from repro.analysis.experiments import default_trace
from repro.analysis.viewchange import measure_view_change_latency
from repro.scenario import Scenario
from repro.workload import portable_workload
from repro.workload.game import GameConfig, generate_game_trace


@pytest.fixture(scope="module")
def trace():
    return generate_game_trace(GameConfig(rounds=900, seed=8))  # 30 s


@pytest.fixture(scope="module")
def results(trace):
    return {
        semantic: measure_view_change_latency(
            trace, semantic=semantic, slow_rate=25.0, load_time=15.0
        )
        for semantic in (False, True)
    }


class TestViewChangeUnderLoad:
    def test_semantic_backlog_smaller(self, results):
        assert results[True].backlog_at_trigger < results[False].backlog_at_trigger

    def test_semantic_purged_messages(self, results):
        assert results[True].purged_at_slow > 0
        assert results[False].purged_at_slow == 0

    def test_app_level_latency_ordering(self, results):
        assert results[True].slow_app_latency < results[False].slow_app_latency

    def test_protocol_level_latency_small_for_both(self, results):
        # The consensus exchange itself is fast; the backlog is what the
        # application waits behind.
        for result in results.values():
            assert result.protocol_latency < 1.0

    def test_view_installed_at_all_members(self, results):
        for result in results.values():
            assert set(result.app_latency) == {0, 1, 2}

    def test_fast_members_see_view_quickly(self, results):
        for result in results.values():
            fast = [v for pid, v in result.app_latency.items() if pid != 1]
            assert all(v < 1.0 for v in fast)


# ----------------------------------------------------------------------
# The spec check the measurement itself leaves off
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def traces():
    """The two traces the view-change table runs on: the paper-scale
    default and the ``reproduce_figures.py --fast`` one."""
    return {"default": default_trace(), "fast": portable_workload("game", rounds=2000)}


def checked_violations(trace, semantic, k=64, slow_rate=30.0, load_time=30.0):
    """:func:`measure_view_change_latency`'s Scenario (at its defaults),
    rebuilt with the executable-specification check on."""
    scenario = (
        Scenario()
        .group(n=3, seed=0, consensus="chandra-toueg", fd="oracle")
        .workload(trace, sender=0, representation="k-enumeration", k=k)
        .consumers(rate=10_000.0)
        .consumers(rate=slow_rate, pids=[1])
    )
    if not semantic:
        scenario.group(relation="empty")
    live = scenario.build()
    live.sim.schedule_at(load_time, live.stack.processes[0].trigger_view_change)
    return live.run(until=load_time + 60.0).violations


#: Messages the slow member's k=64 purges leave uncovered at the table's
#: slow rate (25 msg/s): every coverer within k of them was purged too.
GAP = (1037, 1038, 1041, 1044, 1052)


class TestViewChangeSpec:
    """The k=64 window is shorter than the slow member's backlog, so the
    k-enumeration relation is not transitive across it and a purge can
    remove the last message covering an already-purged one.  The checker
    sees it; the pins below hold the table to exactly these findings."""

    @pytest.mark.parametrize("trace_name", ["default", "fast"])
    def test_semantic_arm_breaks_fifo_once(self, traces, trace_name):
        assert checked_violations(traces[trace_name], semantic=True) == [
            "FIFO(i): 1 delivered Data(0.1055@v0) after sn 1201 of the same "
            "sender"
        ]

    @pytest.mark.parametrize("trace_name", ["default", "fast"])
    def test_reliable_arm_is_clean(self, traces, trace_name):
        assert checked_violations(traces[trace_name], semantic=False) == []

    @pytest.mark.parametrize("trace_name", ["default", "fast"])
    def test_wider_window_is_clean(self, traces, trace_name):
        assert checked_violations(traces[trace_name], semantic=True, k=128) == []

    def test_table_slow_rate(self, traces):
        """``view_change_latency_table`` runs the slow member at 25 msg/s:
        there the semantic arm also breaks SVS and FIFO(ii), and k=128
        still leaves one FIFO(i) reordering."""
        trace = traces["fast"]
        assert checked_violations(trace, semantic=True, slow_rate=25.0) == [
            *(
                f"SVS: {pid} delivered Data(0.{sn}@v0) in view 0 but 1 "
                f"installed view 1 without covering it"
                for pid in (0, 2)
                for sn in GAP
            ),
            "FIFO(i): 1 delivered Data(0.287@v0) after sn 1201 of the same "
            "sender",
            *(
                f"FIFO(ii): 1 installed view #1 having delivered up to sn "
                f"1203 of sender 0 without covering Data(0.{sn}@v0)"
                for sn in GAP
            ),
        ]
        assert checked_violations(trace, semantic=False, slow_rate=25.0) == []
        assert checked_violations(trace, semantic=True, k=128, slow_rate=25.0) == [
            "FIFO(i): 1 delivered Data(0.1052@v0) after sn 1201 of the same "
            "sender"
        ]
