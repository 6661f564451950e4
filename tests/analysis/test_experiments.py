"""Tests for the per-figure experiment harness (shapes and qualitative
properties on short traces; the paper-scale claims are in
``tests/analysis/test_paper_claims.py`` and ``examples/reproduce_figures.py``
prints the full run)."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro.analysis
import repro.analysis.experiments as exp

REPO = pathlib.Path(__file__).resolve().parents[2]


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

    def test_panels_share_one_grid(self, monkeypatch, short_game_trace):
        """4(b) reads the grid 4(a) just ran; another trace, buffer or
        rate list runs it again."""
        from repro.workload import portable_workload

        calls = []
        sweep = exp.figure_4_sweep

        def counted(*args):
            calls.append(args[1:3])
            return sweep(*args)

        monkeypatch.setattr(exp, "figure_4_sweep", counted)
        trace = portable_workload("game", rounds=300)
        exp.figure_4a(trace, rates=(80, 30))
        b = exp.figure_4b(trace, rates=[80, 30])
        assert calls == [(15, (80, 30))]
        assert b == exp._by_protocol(
            sweep(trace, rates=(80, 30)), "consumer_rate", (80, 30),
            "mean_occupancy", lambda value: round(value, 2),
        )
        exp.figure_4b(trace, buffer_size=8, rates=(80, 30))
        exp.figure_4a(trace, buffer_size=8, rates=(80,))
        exp.figure_4a(portable_workload("game", rounds=300), 8, (80,))
        assert calls == [(15, (80, 30)), (8, (80, 30)), (8, (80,)), (8, (80,))]


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


class TestFigureTable:
    def test_reproduce_figures_calls_each_figure_once_in_table_order(self):
        """The benchmark's tracer times each figure by wrapping the module
        attribute ``exp.<name>``; a renamed figure, or a script that calls
        a captured function object, would silently time nothing."""
        tree = ast.parse((REPO / "examples" / "reproduce_figures.py").read_text())
        names = {figure.name for figure in exp.FIGURES}

        def figure_calls(node):
            calls = [
                call for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "exp"
                and call.func.attr in names
            ]
            calls.sort(key=lambda call: (call.lineno, call.col_offset))
            return [call.func.attr for call in calls]

        main = next(
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "main"
        )
        assert figure_calls(main) == [figure.name for figure in exp.FIGURES]
        # Outside main, only the golden-delta section recomputes 4(a).
        assert sorted(figure_calls(tree)) == sorted(
            figure_calls(main) + ["figure_4a"]
        )

    def test_table_matches_the_benchmark_tracer(self):
        from bench import tracer

        assert tuple(f.name for f in exp.FIGURES) == tracer.FIGURES

    def test_figure_4_reads_the_module_level_sweep_at_call_time(
        self, monkeypatch
    ):
        calls = []

        def recorded(*args):
            calls.append(args)
            raise LookupError("patched")

        monkeypatch.setattr(exp, "figure_4_sweep", recorded)
        for entry in (exp.figure_4a, exp.figure_4b):
            with pytest.raises(LookupError, match="patched"):
                entry(None, 15, (80,))
        assert len(calls) == 2


def test_every_experiment_is_exported_from_the_package():
    missing = [
        name for name in exp.__all__
        if getattr(repro.analysis, name, None) is not getattr(exp, name)
    ]
    assert not missing
    assert set(exp.__all__) <= set(repro.analysis.__all__)


def test_the_figure_path_leaves_the_live_transport_unloaded():
    """Importing the experiments loads no asyncio, sockets or executor
    pools; ``repro.transports`` still resolves, backends registered."""
    code = (
        "import sys, repro.analysis.experiments\n"
        "live = ('asyncio', 'socket', 'concurrent.futures', 'repro.transport')\n"
        "print([name for name in live if name in sys.modules])\n"
        "import repro\n"
        "print(callable(repro.transports.get('loopback')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=REPO,
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["[]", "True"]
