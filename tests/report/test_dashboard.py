"""Dashboard renderer over a recorded stats trail — no pty, no curses."""

import io
import json

from repro.report import read_state, render_dashboard, watch
from repro.sweep.dispatch import record_dispatch


def make_cache_dir(tmp_path, shards=3, runs=1):
    """A fake cache dir: shard files + counters + a dispatch trail."""
    root = tmp_path / "cache"
    shard_dir = root / "ab"
    shard_dir.mkdir(parents=True)
    for i in range(shards):
        (shard_dir / f"shard{i}.json").write_text("{}")
    (root / "cache-stats.json").write_text(
        json.dumps(
            {"hits": 6, "misses": 2, "stores": 2, "corrupt": 0, "runs": 2}
        )
    )
    for i in range(runs):
        record_dispatch(
            root,
            {
                "backend": "local-pool",
                "workers": 2,
                "wall_s": 1.5 + i,
                "cells_total": 8,
                "cells_cached": 2,
                "completed": 6,
                "stolen": 1,
                "reissued": 0,
                "duplicates": 0,
            },
        )
    return root


class TestReadState:
    def test_counts_shards_and_loads_trail(self, tmp_path):
        root = make_cache_dir(tmp_path, shards=5, runs=2)
        state = read_state(root)
        assert state["exists"] is True
        assert state["shards"] == 5
        assert state["counters"]["hits"] == 6
        assert len(state["runs"]) == 2

    def test_missing_directory(self, tmp_path):
        state = read_state(tmp_path / "nope")
        assert state["exists"] is False
        assert state["shards"] == 0
        assert state["runs"] == []


class TestRenderDashboard:
    def test_full_frame_from_recorded_trail(self, tmp_path):
        state = read_state(make_cache_dir(tmp_path))
        lines = render_dashboard(state)
        text = "\n".join(lines)
        assert "repro-report watch" in text
        assert "shards: 3" in text
        assert "6 hits / 2 misses (75.0%)" in text
        assert "local-pool × 2 workers" in text
        assert "8/8" in text  # 2 cached + 6 computed of 8 total
        assert "1 stolen" in text

    def test_progress_rate_from_previous_snapshot(self, tmp_path):
        state = read_state(make_cache_dir(tmp_path, shards=10))
        lines = render_dashboard(state, {"shards": 4}, elapsed_s=2.0)
        assert any("+6 shards, 3.0 cells/s" in line for line in lines)

    def test_idle_when_no_new_shards(self, tmp_path):
        state = read_state(make_cache_dir(tmp_path))
        lines = render_dashboard(state, {"shards": 3}, elapsed_s=1.0)
        assert any("(idle)" in line for line in lines)

    def test_waiting_message_for_missing_dir(self, tmp_path):
        lines = render_dashboard(read_state(tmp_path / "nope"))
        assert any("does not exist yet" in line for line in lines)

    def test_no_dispatch_recorded_yet(self, tmp_path):
        root = make_cache_dir(tmp_path, runs=0)
        lines = render_dashboard(read_state(root))
        assert any("no dispatch recorded yet" in line for line in lines)

    def test_earlier_runs_are_counted(self, tmp_path):
        root = make_cache_dir(tmp_path, runs=3)
        lines = render_dashboard(read_state(root))
        assert any("2 earlier dispatch runs" in line for line in lines)

    def test_pure_renderer_is_deterministic(self, tmp_path):
        state = read_state(make_cache_dir(tmp_path))
        assert render_dashboard(state) == render_dashboard(state)


class TestWatchLoop:
    def test_plain_mode_emits_requested_frames(self, tmp_path):
        root = make_cache_dir(tmp_path)
        out = io.StringIO()
        rc = watch(root, interval=0.01, iterations=2, stream=out)
        assert rc == 0
        text = out.getvalue()
        assert text.count("repro-report watch") == 2

    def test_never_uses_curses_with_iterations(self, tmp_path):
        # A StringIO has no tty; watch must render plainly and return.
        out = io.StringIO()
        rc = watch(tmp_path / "nope", interval=0.01, iterations=1, stream=out)
        assert rc == 0
        assert "does not exist yet" in out.getvalue()


class TestPooledSweepTrail:
    def test_dashboard_follows_a_real_pooled_sweep(self, tmp_path):
        from repro.sweep import Sweep, run_sweep
        from repro.sweep.cells import arithmetic_cell

        root = tmp_path / "cache"
        sweep = Sweep(base={"k": 7}, seeds=2).axis("x", [1, 2, 3, 4])
        run_sweep(sweep, arithmetic_cell, workers=2, cache=root)
        state = read_state(root)
        assert state["shards"] > 0 and len(state["runs"]) == 1
        text = "\n".join(render_dashboard(state))
        assert "local-pool × 2 workers" in text
        assert "8/8" in text

    def test_older_trail_fields_are_ignored(self, tmp_path):
        # Trails written before the pool became the only parallel path
        # carry a per-worker table; the dashboard renders them unchanged.
        root = make_cache_dir(tmp_path)
        record_dispatch(
            root,
            {
                "backend": "subprocess",
                "workers": 2,
                "wall_s": 1.5,
                "cells_total": 8,
                "cells_cached": 2,
                "completed": 6,
                "stolen": 1,
                "reissued": 0,
                "duplicates": 0,
                "per_worker": {"local/0": {"cells": 6, "busy_s": 1.2}},
            },
        )
        text = "\n".join(render_dashboard(read_state(root)))
        assert "subprocess × 2 workers" in text
        assert "local/0" not in text
        assert "1 earlier dispatch runs" in text

