"""The process pool behind ``workers=N``: same bytes, loud failures, trail.

The contract: a pooled run produces byte-identical aggregated JSON to a
serial run on the same grid/seed, including cold-with-cache and warm
runs; a cell error in a worker names its cell; a worker that dies fails
the sweep instead of hanging it; and every cache-backed pooled run leaves
one record in the ``dispatch-stats.json`` trail.
"""

import json
import os
import time

import pytest

from repro.sweep import Sweep, SweepError, run_sweep
from repro.sweep.cells import arithmetic_cell, failing_cell
from repro.sweep.dispatch import (
    _lost_runs_error,
    auto_chunksize,
    load_dispatch_stats,
    record_dispatch,
    run_pool,
)
from repro.sweep.executor import (
    SweepCellError,
    SweepInvariantError,
    _execute,
)


def small_sweep(**base):
    return Sweep(base={"k": 7, **base}, seeds=2).axis("x", [1, 2, 3, 4])


# Module-level so the pool can pickle it.
def dies_on_x3(params, seed, context):
    """Kill the hosting process on cell x == 3, as a segfault would."""
    if params["x"] == 3:
        os._exit(1)
    return arithmetic_cell(params, seed, context)


#: Environment variable naming a file whose existence arms :func:`dies_if_armed`.
KILL_SWITCH_ENV = "REPRO_TEST_KILL_SWITCH"


def dies_if_armed(params, seed, context):
    """Like :func:`dies_on_x3`, but only while the kill-switch file exists.

    The switch lives outside params and context, so disarming it leaves
    every cache key unchanged and a rerun can be served from the cache.
    """
    switch = os.environ.get(KILL_SWITCH_ENV, "")
    if params["x"] == 3 and switch and os.path.exists(switch):
        os._exit(1)
    return arithmetic_cell(params, seed, context)


def violates_on_even(params, seed, context):
    out = arithmetic_cell(params, seed, context)
    if params["x"] % 2 == 0:
        out["violations"] = [f"synthetic violation at x={params['x']}"]
    return out


#: Set in each pool process by :meth:`PidContext.prepare_worker`.
_PREPARED_PID = None


class PidContext:
    """A context whose ``prepare_worker`` hook stamps the hosting process."""

    def prepare_worker(self):
        global _PREPARED_PID
        _PREPARED_PID = os.getpid()


def prepared_here(params, seed, context):
    return {"prepared": float(_PREPARED_PID == os.getpid())}


def tasks_for(sweep):
    """The executor's task list for ``sweep``: (index, cell, params, rep, seed)."""
    tasks = []
    for cell_index, params in enumerate(sweep.cells()):
        for replicate, seed in enumerate(sweep.seeds_for(params)):
            tasks.append((len(tasks), cell_index, params, replicate, seed))
    return tasks


class TestAutoChunksize:
    def test_bounds(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(1, 4) == 1
        assert auto_chunksize(10_000, 2) == 32

    def test_mid_grid(self):
        # 22 tasks over 2 workers: a few chunks per worker, not one giant.
        assert 1 <= auto_chunksize(22, 2) <= 6

    @pytest.mark.parametrize(
        "n_tasks, workers, expected",
        [
            (0, 4, 1),
            (1, 4, 1),
            (7, 2, 1),
            (8, 2, 1),
            (16, 2, 2),
            (64, 2, 8),
            (256, 2, 32),
            (10_000, 8, 32),
            (5, 0, 1),
        ],
    )
    def test_table(self, n_tasks, workers, expected):
        assert auto_chunksize(n_tasks, workers) == expected

    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_about_four_chunks_per_worker_below_the_clamp(self, workers):
        for n_tasks in range(1, 1200):
            chunk = auto_chunksize(n_tasks, workers)
            assert 1 <= chunk <= 32
            n_chunks = -(-n_tasks // chunk)
            if chunk < 32:
                # Never fewer than ~4 chunks per worker unless the grid
                # is too small to split that finely.
                assert n_chunks >= min(n_tasks, workers * 4)


class TestRunPool:
    """:func:`run_pool` on its own: every task once, the trail record."""

    @pytest.mark.parametrize(
        "n_cells, workers", [(1, 2), (5, 2), (17, 3), (40, 2)]
    )
    def test_every_task_emitted_once_as_serial_would(self, n_cells, workers):
        sweep = Sweep(base={"k": 3}).axis("x", list(range(n_cells)))
        tasks = tasks_for(sweep)
        emitted = {}

        def emit(index, cell_index, run):
            assert index not in emitted
            emitted[index] = (cell_index, run)

        entry = run_pool(tasks, arithmetic_cell, None, False, workers, emit)
        assert sorted(emitted) == list(range(len(tasks)))
        for task in tasks:
            index, cell_index, run = _execute(arithmetic_cell, None, task, False)
            assert emitted[index] == (cell_index, run)
        assert entry["dispatched"] == entry["completed"] == len(tasks)
        assert entry["workers"] == workers
        assert entry["chunksize"] == auto_chunksize(len(tasks), workers)

    def test_record_keeps_the_keys_trail_readers_use(self):
        tasks = tasks_for(small_sweep())
        entry = run_pool(
            tasks, arithmetic_cell, None, False, 2, lambda *args: None
        )
        assert entry["backend"] == "local-pool"
        assert entry["dispatched"] == len(tasks)
        assert entry["stolen"] == entry["reissued"] == entry["duplicates"] == 0
        assert entry["wall_s"] >= 0
        json.dumps(entry)  # the record must be JSON-encodable as is

    @pytest.mark.timeout(30)
    def test_emit_error_propagates_and_cancels(self):
        tasks = tasks_for(Sweep().axis("x", list(range(64))))
        calls = []

        def emit(index, cell_index, run):
            calls.append(index)
            raise KeyError("stop here")

        with pytest.raises(KeyError, match="stop here"):
            run_pool(tasks, arithmetic_cell, None, False, 2, emit)
        assert len(calls) == 1

    def test_lost_runs_error_truncates_long_lists(self):
        tasks = tasks_for(Sweep().axis("x", list(range(13))))
        message = str(_lost_runs_error(tasks))
        assert "13 runs did not finish" in message
        assert message.count("  cell: ") == 10
        assert "(+3 more)" in message

    def test_lost_runs_error_names_each_run(self):
        tasks = tasks_for(Sweep(seeds=2).axis("x", [4]))
        error = _lost_runs_error(tasks)
        assert isinstance(error, SweepError)
        message = str(error)
        assert "2 runs did not finish" in message and "more)" not in message
        for _index, _cell, params, replicate, seed in tasks:
            assert f"replicate {replicate} seed {seed}" in message
        assert '"x": 4' in message


class TestPoolDeterminism:
    """serial == pool, byte for byte."""

    pytestmark = pytest.mark.slow

    def test_pool_matches_serial(self):
        sweep = small_sweep()
        assert (
            run_sweep(sweep, arithmetic_cell, workers=2).to_json()
            == run_sweep(sweep, arithmetic_cell).to_json()
        )

    def test_context_travels(self):
        sweep = small_sweep()
        ctx = {"offset": 2.5}
        serial = run_sweep(sweep, arithmetic_cell, context=ctx).to_json()
        pool = run_sweep(
            sweep, arithmetic_cell, context=ctx, workers=2
        ).to_json()
        assert pool == serial

    def test_cold_with_cache_and_warm_byte_identical(self, tmp_path):
        sweep = small_sweep()
        plain = run_sweep(sweep, arithmetic_cell).to_json()
        cache = tmp_path / "cache"
        cold = run_sweep(
            sweep, arithmetic_cell, workers=2, cache=cache
        ).to_json()
        warm = run_sweep(sweep, arithmetic_cell, cache=cache).to_json()
        warm_pooled = run_sweep(
            sweep, arithmetic_cell, workers=2, cache=cache
        ).to_json()
        assert plain == cold == warm == warm_pooled

    def test_dispatch_stats_recorded_with_cache(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(small_sweep(), arithmetic_cell, workers=2, cache=cache)
        payload = load_dispatch_stats(cache)
        assert len(payload["runs"]) == 1
        entry = payload["runs"][0]
        assert entry["backend"] == "local-pool" and entry["workers"] == 2
        assert entry["dispatched"] == entry["completed"] == 8
        assert entry["stolen"] == entry["reissued"] == entry["duplicates"] == 0
        assert entry["chunksize"] == auto_chunksize(8, 2)
        assert entry["cells_total"] == 8 and entry["cells_cached"] == 0

    def test_scenario_cells_over_pool(self):
        # Full-stack cells (kernel, protocol, invariant checks) through the
        # pool: the sharpest byte-identity probe we have.
        from repro.sweep import ScenarioSweep

        sweep = (
            ScenarioSweep(
                base={
                    "until": 5.0,
                    "workload": "game",
                    "workload_params": {"rounds": 120},
                    "consumer_rate": 300.0,
                    "consensus": "oracle",
                    "metrics": ["throughput", "purges"],
                },
                seeds=2,
            )
            .axis("n", [3, 5])
        )
        assert sweep.run(workers=2).to_json() == sweep.run().to_json()


class TestPoolOptions:
    """The executor's other options behave the same over the pool."""

    pytestmark = pytest.mark.slow

    def test_progress_is_called_in_the_parent_per_run(self):
        calls = []
        run_sweep(
            small_sweep(),
            arithmetic_cell,
            workers=2,
            progress=lambda done, total, run: calls.append(
                (done, total, os.getpid())
            ),
        )
        assert [done for done, _t, _p in calls] == list(range(1, 9))
        assert {total for _d, total, _p in calls} == {8}
        assert {pid for _d, _t, pid in calls} == {os.getpid()}

    def test_collected_violations_match_serial(self):
        sweep = small_sweep()
        serial = run_sweep(sweep, violates_on_even, on_violation="collect")
        pooled = run_sweep(
            sweep, violates_on_even, on_violation="collect", workers=2
        )
        assert not pooled.ok
        assert pooled.to_json() == serial.to_json()

    def test_raised_violation_names_the_cell(self):
        with pytest.raises(SweepInvariantError, match="synthetic violation"):
            run_sweep(small_sweep(), violates_on_even, workers=2)

    def test_prepare_worker_runs_in_every_pool_process(self):
        result = Sweep().axis("x", list(range(8))).run(
            prepared_here, workers=2, context=PidContext()
        )
        assert all(
            run.metrics["prepared"] == 1.0
            for cell in result.cells
            for run in cell.runs
        )

    def test_more_workers_than_runs(self):
        sweep = Sweep(base={"k": 1}).axis("x", [1, 2])
        assert (
            run_sweep(sweep, arithmetic_cell, workers=4).to_json()
            == run_sweep(sweep, arithmetic_cell).to_json()
        )

    @pytest.mark.parametrize("workers", [0, 1, None])
    def test_serial_runs_leave_no_trail_record(self, tmp_path, workers):
        cache = tmp_path / "cache"
        run_sweep(small_sweep(), arithmetic_cell, workers=workers, cache=cache)
        assert load_dispatch_stats(cache)["runs"] == []

    def test_partly_warm_cache_sends_only_misses_to_the_pool(self, tmp_path):
        cache = tmp_path / "cache"
        half = Sweep(base={"k": 7}, seeds=2).axis("x", [1, 2])
        run_sweep(half, arithmetic_cell, cache=cache)
        pooled = run_sweep(small_sweep(), arithmetic_cell, workers=2, cache=cache)
        assert pooled.to_json() == run_sweep(small_sweep(), arithmetic_cell).to_json()
        (entry,) = load_dispatch_stats(cache)["runs"]
        assert entry["cells_total"] == 8 and entry["cells_cached"] == 4
        assert entry["dispatched"] == entry["completed"] == 4

    def test_fully_warm_pooled_run_starts_no_pool(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(small_sweep(), arithmetic_cell, workers=2, cache=cache)
        run_sweep(small_sweep(), arithmetic_cell, workers=2, cache=cache)
        assert len(load_dispatch_stats(cache)["runs"]) == 1


class TestPoolFailures:
    def test_cell_error_propagates_from_worker(self):
        sweep = Sweep(base={"fail_at": 3}, seeds=1).axis("x", [1, 2, 3, 4])
        with pytest.raises(SweepCellError, match="designated failure") as info:
            run_sweep(sweep, failing_cell, workers=2)
        assert info.value.params == {"fail_at": 3, "x": 3}
        assert info.value.replicate == 0

    @pytest.mark.timeout(30)
    def test_dead_worker_fails_the_sweep(self, tmp_path):
        # Regression: multiprocessing.Pool lost the dead worker's task and
        # the sweep waited for it forever.
        sweep = Sweep().axis("x", list(range(8)))
        started = time.perf_counter()
        with pytest.raises(SweepError, match="worker process died") as info:
            sweep.run(dies_on_x3, workers=2, cache=tmp_path / "cache")
        assert time.perf_counter() - started < 20
        assert '"x": 3' in str(info.value)  # the killer is among the named
        # A failed pool leaves no trail record.
        assert load_dispatch_stats(tmp_path / "cache")["runs"] == []

    @pytest.mark.timeout(30)
    def test_dead_worker_without_cache(self):
        with pytest.raises(SweepError, match="worker process died"):
            Sweep().axis("x", list(range(8))).run(dies_on_x3, workers=2)

    @pytest.mark.timeout(60)
    def test_rerun_after_dead_worker_completes_from_cache(
        self, tmp_path, monkeypatch
    ):
        switch = tmp_path / "armed"
        switch.write_text("")
        monkeypatch.setenv(KILL_SWITCH_ENV, str(switch))
        cache = tmp_path / "cache"
        sweep = Sweep().axis("x", list(range(8)))
        with pytest.raises(SweepError, match="worker process died"):
            sweep.run(dies_if_armed, workers=2, cache=cache)
        switch.unlink()
        rerun = sweep.run(dies_if_armed, workers=2, cache=cache)
        assert rerun.to_json() == sweep.run(dies_if_armed).to_json()
        (entry,) = load_dispatch_stats(cache)["runs"]
        # Whatever finished before the crash is served by the cache.
        assert entry["cells_cached"] + entry["dispatched"] == 8
        assert entry["dispatched"] >= 1  # the killer's run, at least


class TestDispatchStatsTrail:
    def test_record_caps_history(self, tmp_path):
        for i in range(60):
            record_dispatch(tmp_path, {"backend": "x", "i": i})
        runs = load_dispatch_stats(tmp_path)["runs"]
        assert len(runs) == 50
        assert runs[-1]["i"] == 59 and runs[0]["i"] == 10

    def test_load_missing_and_corrupt(self, tmp_path):
        assert load_dispatch_stats(tmp_path)["runs"] == []
        (tmp_path / "dispatch-stats.json").write_text("{nope")
        assert load_dispatch_stats(tmp_path)["runs"] == []

    @pytest.mark.slow
    def test_cli_stats_reports_dispatch_section(self, tmp_path, capsys):
        from repro.sweep.cli import main as cli_main

        cache_dir = str(tmp_path / "cache")
        run_sweep(small_sweep(), arithmetic_cell, cache=cache_dir, workers=2)
        assert cli_main(["stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "dispatch:" in out and "local-pool" in out

        assert cli_main(["stats", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        agg = payload["dispatch"]["by_backend"]["local-pool"]
        assert agg["runs"] == 1 and agg["dispatched"] == 8
        assert payload["dispatch"]["last"]["cells_total"] == 8

    def test_cli_stats_without_dispatch_trail(self, tmp_path, capsys):
        from repro.sweep.cli import main as cli_main

        cache_dir = str(tmp_path / "cache")
        run_sweep(small_sweep(), arithmetic_cell, cache=cache_dir)
        assert cli_main(["stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "dispatch:" not in out
        assert cli_main(["stats", cache_dir, "--json"]) == 0
        assert "dispatch" not in json.loads(capsys.readouterr().out)


class TestDispatchStatsConcurrency:
    """Regression: the trail's read-modify-write dropped concurrent records.

    Two sweeps finishing into one cache dir each read the same trail; the
    second ``os.replace`` silently discarded the first's record.  The
    ``O_EXCL`` lockfile serializes the append (bounded retry, stale-lock
    breaking), so every record survives.
    """

    def test_concurrent_writers_lose_nothing(self, tmp_path):
        import threading

        barrier = threading.Barrier(8)

        def write(base):
            barrier.wait()
            for i in range(5):
                record_dispatch(tmp_path, {"backend": "t", "i": base + i})

        threads = [
            threading.Thread(target=write, args=(t * 5,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        runs = load_dispatch_stats(tmp_path)["runs"]
        assert sorted(run["i"] for run in runs) == list(range(40))
        # The lock is released afterwards.
        assert not (tmp_path / "dispatch-stats.json.lock").exists()

    def test_trim_happens_after_merge_not_before(self, tmp_path):
        # Seed the trail right at the cap, then append: the oldest record
        # must fall off and the newest survive — trimming before the
        # merge would instead drop the new record.
        for i in range(50):
            record_dispatch(tmp_path, {"backend": "t", "i": i})
        record_dispatch(tmp_path, {"backend": "t", "i": 50})
        runs = load_dispatch_stats(tmp_path)["runs"]
        assert len(runs) == 50
        assert runs[-1]["i"] == 50 and runs[0]["i"] == 1

    def test_stale_lock_is_broken(self, tmp_path):
        lock = tmp_path / "dispatch-stats.json.lock"
        tmp_path.mkdir(exist_ok=True)
        lock.write_text("999999")
        old = time.time() - 3600
        os.utime(lock, (old, old))
        record_dispatch(tmp_path, {"backend": "t", "i": 1})
        assert load_dispatch_stats(tmp_path)["runs"][-1]["i"] == 1
        assert not lock.exists()

    def test_fresh_foreign_lock_waits_then_proceeds(self, tmp_path, monkeypatch):
        from repro.sweep import dispatch as dispatch_mod

        # A live lock that never releases: after the (shrunken) retry
        # budget the append proceeds unlocked — stats are best-effort and
        # must never wedge a sweep.
        monkeypatch.setattr(dispatch_mod, "_LOCK_RETRIES", 3)
        monkeypatch.setattr(dispatch_mod, "_LOCK_SLEEP_S", 0.001)
        (tmp_path / "dispatch-stats.json.lock").write_text("1")
        record_dispatch(tmp_path, {"backend": "t", "i": 7})
        assert load_dispatch_stats(tmp_path)["runs"][-1]["i"] == 7

    def test_no_tmp_litter_left_behind(self, tmp_path):
        for i in range(3):
            record_dispatch(tmp_path, {"backend": "t", "i": i})
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".dispatch-")]
        assert leftovers == []
