"""Tests for the per-figure experiment harness (shapes and qualitative
properties on short traces; the paper-scale claims are in
``tests/analysis/test_paper_claims.py`` and ``examples/reproduce_figures.py``
prints the full run)."""

import pytest

import repro.analysis.experiments as exp


class TestWorkloadStats:
    def test_rows_have_paper_and_measured(self, short_game_trace):
        rows = exp.workload_stats(short_game_trace)
        assert len(rows) == 5
        for name, paper, measured in rows:
            assert isinstance(name, str)
            assert paper > 0 and measured > 0

    def test_show_prints(self, short_game_trace, capsys):
        exp.workload_stats(short_game_trace, show=True)
        out = capsys.readouterr().out
        assert "Section 5.2" in out and "never obsolete" in out


class TestFigure3:
    def test_3a_rows(self, short_game_trace):
        rows = exp.figure_3a(short_game_trace, top=10)
        assert len(rows) == 10
        assert rows[0][1] >= rows[5][1] >= rows[9][1]

    def test_3b_rows_sum_to_100(self, short_game_trace):
        rows = exp.figure_3b(short_game_trace)
        assert sum(p for _, p in rows) == pytest.approx(100.0, abs=0.5)


class TestFigure4:
    def test_4a_semantic_dominates(self, short_game_trace):
        rows = exp.figure_4a(short_game_trace, rates=(80, 30))
        for rate, rel, sem in rows:
            assert sem >= rel - 1e-9

    def test_4b_occupancy_rises_as_consumer_slows(self, short_game_trace):
        rows = exp.figure_4b(short_game_trace, rates=(100, 25))
        assert rows[1][1] > rows[0][1]  # reliable occupancy grows


class TestFigure5:
    def test_5a_rows(self, short_game_trace):
        rows = exp.figure_5a(short_game_trace, buffers=(8, 24))
        (b1, rel1, sem1), (b2, rel2, sem2) = rows
        assert rel2 <= rel1 and sem2 <= sem1  # larger buffer helps
        assert sem1 <= rel1 and sem2 <= rel2

    def test_5b_rows(self, short_game_trace):
        rows = exp.figure_5b(short_game_trace, buffers=(8, 24), probes=3)
        for _, rel_ms, sem_ms in rows:
            assert sem_ms >= rel_ms


class TestAblations:
    def test_k_ablation_monotone(self, short_game_trace):
        rows = exp.ablation_k(short_game_trace, ks=(2, 30))
        assert rows[1][1] >= rows[0][1]  # larger k purges at least as much

    def test_representation_ablation(self, short_game_trace):
        rows = exp.ablation_representation(short_game_trace)
        names = [r[0] for r in rows]
        assert names == ["tagging", "enumeration", "k-enumeration"]
        # Tagging is the most expressive for this workload (no window).
        by_name = {r[0]: r[1] for r in rows}
        assert by_name["tagging"] >= by_name["k-enumeration"] - 0.01

    def test_players_ablation_trends(self):
        rows = exp.ablation_players(players=(2, 10), rounds=2000)
        (p2, rate2, never2, dist2), (p10, rate10, never10, dist10) = rows
        assert rate10 > rate2
        assert never10 < never2
        assert dist10 > dist2


class TestDefaultTrace:
    def test_cached(self):
        assert exp.default_trace() is exp.default_trace()
