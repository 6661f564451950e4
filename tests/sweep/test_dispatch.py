"""Dispatch backends: determinism across paths, crash recovery, protocol.

The tentpole contract: serial == local-pool == subprocess == ssh —
byte-identical aggregated JSON on the same grid/seed, including
cold-with-cache and warm runs; a worker killed mid-sweep re-queues its
in-flight cells and the sweep still completes identically.

ssh-to-localhost is exercised through a shim ``ssh`` executable (this
environment runs no sshd): the shim drops the client options and host
argument and runs the remote command locally, so every byte of the ssh
backend's code path — remote command construction, per-host slots, frame
transport over the child's pipes — is covered.  A real-ssh variant runs
whenever ``ssh localhost`` actually works.
"""

import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.registry import dispatch_backends
from repro.sweep import (
    DispatchError,
    LocalPoolDispatch,
    SshDispatch,
    SubprocessDispatch,
    Sweep,
    SweepCache,
    SweepError,
    parse_hostfile,
    run_sweep,
)
from repro.sweep.cells import (
    arithmetic_cell,
    failing_cell,
    flaky_worker_cell,
    sleepy_cell,
)
from repro.sweep.dispatch import (
    auto_chunksize,
    context_spec,
    load_dispatch_stats,
    record_dispatch,
    resolve_backend,
    runner_path,
)
from repro.sweep.executor import SweepCellError
from repro.sweep import worker as worker_mod


def small_sweep(**base):
    return Sweep(base={"k": 7, **base}, seeds=2).axis("x", [1, 2, 3, 4])


def make_ssh_shim(tmp_path) -> str:
    """A fake ssh client: drop options + host, run the command locally."""
    shim = tmp_path / "fake-ssh"
    shim.write_text(
        "#!/bin/sh\n"
        'while [ "$#" -gt 0 ]; do\n'
        '  case "$1" in\n'
        "    -o) shift 2 ;;\n"
        "    -*) shift ;;\n"
        "    *) break ;;\n"
        "  esac\n"
        "done\n"
        'host="$1"; shift\n'
        'exec /bin/sh -c "$*"\n'
    )
    shim.chmod(0o755)
    return str(shim)


def ssh_localhost_works() -> bool:
    try:
        return (
            subprocess.run(
                ["ssh", "-o", "BatchMode=yes", "-o", "ConnectTimeout=2",
                 "localhost", "true"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=10,
            ).returncode
            == 0
        )
    except (OSError, subprocess.TimeoutExpired):
        return False


class TestRegistry:
    def test_backends_registered(self):
        names = dispatch_backends.names()
        assert {"local-pool", "subprocess", "ssh"} <= set(names)

    def test_aliases(self):
        assert dispatch_backends.get("pool") is LocalPoolDispatch
        assert dispatch_backends.get("worker") is SubprocessDispatch

    def test_unknown_backend_suggests(self):
        with pytest.raises(SweepError, match="subprocess"):
            run_sweep(small_sweep(), arithmetic_cell, dispatch="subproces")

    def test_resolve_instance_passthrough(self):
        backend = LocalPoolDispatch(workers=2)
        assert resolve_backend(backend) is backend

    def test_resolve_instance_rejects_params(self):
        with pytest.raises(SweepError, match="dispatch_params"):
            resolve_backend(LocalPoolDispatch(workers=2), params={"workers": 3})

    def test_resolve_filters_kwargs_by_signature(self):
        # subprocess's factory takes workers but not mp_context/chunksize;
        # resolve must not explode passing the inapplicable ones.
        backend = resolve_backend(
            "subprocess", workers=3, mp_context="spawn", chunksize=4
        )
        assert backend.n_workers == 3

    def test_dispatch_params_without_dispatch_rejected(self):
        with pytest.raises(SweepError, match="dispatch_params"):
            run_sweep(
                small_sweep(), arithmetic_cell, dispatch_params={"workers": 2}
            )


class TestAutoChunksize:
    def test_bounds(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(1, 4) == 1
        assert auto_chunksize(10_000, 2) == 32

    def test_mid_grid(self):
        # 22 tasks over 2 workers: a few chunks per worker, not one giant.
        assert 1 <= auto_chunksize(22, 2) <= 6

    def test_pinned_chunksize_respected(self):
        backend = LocalPoolDispatch(workers=2, chunksize=5)
        run_sweep(small_sweep(), arithmetic_cell, dispatch=backend)
        assert backend.stats.chunksize == 5


class TestHostfile:
    def test_parse(self, tmp_path):
        hf = tmp_path / "hosts"
        hf.write_text(
            "# fleet\n"
            "alpha 4\n"
            "beta\n"
            "gamma 2  # trailing comment\n"
            "\n"
        )
        assert parse_hostfile(hf) == {"alpha": 4, "beta": 1, "gamma": 2}

    def test_repeated_host_accumulates(self, tmp_path):
        hf = tmp_path / "hosts"
        hf.write_text("alpha 2\nalpha\n")
        assert parse_hostfile(hf) == {"alpha": 3}

    def test_bad_count(self, tmp_path):
        hf = tmp_path / "hosts"
        hf.write_text("alpha lots\n")
        with pytest.raises(SweepError, match="integer"):
            parse_hostfile(hf)

    def test_zero_count(self, tmp_path):
        hf = tmp_path / "hosts"
        hf.write_text("alpha 0\n")
        with pytest.raises(SweepError, match=">= 1"):
            parse_hostfile(hf)

    def test_empty(self, tmp_path):
        hf = tmp_path / "hosts"
        hf.write_text("# nothing\n")
        with pytest.raises(SweepError, match="no hosts"):
            parse_hostfile(hf)

    def test_ssh_requires_hosts(self):
        with pytest.raises(SweepError, match="hosts"):
            SshDispatch()


class TestPortability:
    def test_runner_path_roundtrip(self):
        path = runner_path(arithmetic_cell)
        assert worker_mod.resolve_callable(path) is arithmetic_cell

    def test_runner_path_rejects_lambda(self):
        with pytest.raises(SweepError, match="importable"):
            runner_path(lambda p, s, c: {})

    def test_runner_path_rejects_local_function(self):
        def local_cell(params, seed, context):
            return {}

        with pytest.raises(SweepError, match="importable"):
            runner_path(local_cell)

    def test_context_spec_none_and_json(self):
        assert context_spec(None) is None
        assert context_spec({"a": 1}) == {"kind": "json", "data": {"a": 1}}

    def test_context_spec_trace_recipe(self):
        from repro.workload import portable_workload

        trace = portable_workload("game", rounds=120)
        spec = context_spec(trace)
        assert spec == {
            "kind": "workload", "name": "game", "params": {"rounds": 120}
        }
        rebuilt = worker_mod.build_context(spec)
        assert rebuilt.cache_token() == trace.cache_token()

    def test_context_spec_unportable_rejected(self):
        from repro.registry import workloads

        bare = workloads.create("game", rounds=120)  # no recipe stamped
        with pytest.raises(SweepError, match="portable"):
            context_spec(bare)


class TestWorkerProtocol:
    """Drive the worker loop in-process over text streams."""

    def run_worker(self, frames):
        stdin = io.StringIO(
            "".join(json.dumps(f, sort_keys=True) + "\n" for f in frames)
        )
        stdout = io.StringIO()
        # main() stamps WORKER_ENV in os.environ; running it in-process
        # would leak the marker into the pytest process (and arm
        # flaky_worker_cell in later tests), so restore it afterwards.
        prev = os.environ.get(worker_mod.WORKER_ENV)
        try:
            code = worker_mod.main(stdin=stdin, stdout=stdout)
            self.env_during = os.environ.get(worker_mod.WORKER_ENV)
        finally:
            if prev is None:
                os.environ.pop(worker_mod.WORKER_ENV, None)
            else:
                os.environ[worker_mod.WORKER_ENV] = prev
        lines = [json.loads(l) for l in stdout.getvalue().splitlines() if l]
        return code, lines

    def hello(self, runner="repro.sweep.cells:arithmetic_cell", **extra):
        frame = {
            "type": "hello",
            "protocol": worker_mod.PROTOCOL,
            "runner": runner,
            "context": None,
            "keep_results": False,
        }
        frame.update(extra)
        return frame

    def test_happy_path(self):
        code, lines = self.run_worker([
            self.hello(),
            {"type": "job", "id": 5, "params": {"x": 1}, "replicate": 0,
             "seed": 42},
            {"type": "shutdown"},
        ])
        assert code == 0
        assert lines[0]["type"] == "ready"
        assert lines[0]["protocol"] == worker_mod.PROTOCOL
        result = lines[1]
        assert result["type"] == "result" and result["id"] == 5
        assert result["run"] == {
            "replicate": 0,
            "seed": 42,
            "metrics": arithmetic_cell({"x": 1}, 42, None),
            "violations": [],
            "result": None,
        }

    def test_result_matches_serial_execution_exactly(self):
        params, seed = {"x": 3, "k": 7}, 987654321
        _, lines = self.run_worker([
            self.hello(),
            {"type": "job", "id": 0, "params": params, "replicate": 1,
             "seed": seed},
            {"type": "shutdown"},
        ])
        from repro.sweep.executor import _execute

        _, _, run = _execute(arithmetic_cell, None, (0, 0, params, 1, seed), False)
        assert lines[1]["run"] == json.loads(json.dumps(run.to_dict()))

    def test_error_frame_carries_cell_coordinates(self):
        _, lines = self.run_worker([
            self.hello(runner="repro.sweep.cells:failing_cell"),
            {"type": "job", "id": 9,
             "params": {"x": 2, "fail_at": 2}, "replicate": 0, "seed": 1},
            {"type": "shutdown"},
        ])
        err = lines[1]
        assert err["type"] == "error" and err["id"] == 9
        assert err["params"] == {"x": 2, "fail_at": 2}
        assert err["replicate"] == 0 and err["seed"] == 1
        assert "designated failure" in err["error"]

    def test_protocol_mismatch_is_fatal(self):
        code, lines = self.run_worker([self.hello(protocol=99)])
        assert code == 2
        assert lines[0]["type"] == "fatal"
        assert "protocol" in lines[0]["error"]

    def test_job_before_hello_is_fatal(self):
        code, lines = self.run_worker([
            {"type": "job", "id": 0, "params": {}, "replicate": 0, "seed": 0}
        ])
        assert code == 2
        assert lines[0]["type"] == "fatal"

    def test_unknown_frame_is_fatal(self):
        code, lines = self.run_worker([self.hello(), {"type": "dance"}])
        assert code == 2
        assert lines[-1]["type"] == "fatal"

    def test_unresolvable_runner_is_fatal(self):
        code, lines = self.run_worker([self.hello(runner="repro.nope:missing")])
        assert code == 2
        assert lines[0]["type"] == "fatal"

    def test_worker_env_marker_set(self):
        self.run_worker([self.hello(), {"type": "shutdown"}])
        assert self.env_during == "1"
        assert os.environ.get(worker_mod.WORKER_ENV) is None


class TestDispatchDeterminism:
    """serial == local-pool == subprocess == ssh, byte for byte."""

    pytestmark = pytest.mark.slow

    def test_all_paths_byte_identical(self, tmp_path):
        sweep = small_sweep()
        serial = run_sweep(sweep, arithmetic_cell).to_json()
        pool = run_sweep(
            sweep, arithmetic_cell, dispatch="local-pool", workers=2
        ).to_json()
        sub = run_sweep(
            sweep, arithmetic_cell, dispatch="subprocess", workers=2
        ).to_json()
        ssh = run_sweep(
            sweep,
            arithmetic_cell,
            dispatch=SshDispatch(
                hosts={"localhost": 2},
                ssh=make_ssh_shim(tmp_path),
                python=sys.executable,
            ),
        ).to_json()
        assert serial == pool == sub == ssh

    def test_legacy_workers_path_unchanged(self):
        # workers>=2 without dispatch= now routes through LocalPoolDispatch;
        # output must equal the serial run exactly, as it always has.
        sweep = small_sweep()
        assert (
            run_sweep(sweep, arithmetic_cell, workers=2).to_json()
            == run_sweep(sweep, arithmetic_cell).to_json()
        )

    @pytest.mark.skipif(
        not ssh_localhost_works(), reason="no passwordless ssh to localhost"
    )
    def test_real_ssh_to_localhost(self):
        sweep = small_sweep()
        serial = run_sweep(sweep, arithmetic_cell).to_json()
        ssh = run_sweep(
            sweep,
            arithmetic_cell,
            dispatch="ssh",
            dispatch_params={
                "hosts": {"localhost": 2}, "python": sys.executable
            },
        ).to_json()
        assert ssh == serial

    def test_json_context_travels(self, tmp_path):
        sweep = small_sweep()
        ctx = {"offset": 2.5}
        serial = run_sweep(sweep, arithmetic_cell, context=ctx).to_json()
        sub = run_sweep(
            sweep, arithmetic_cell, context=ctx,
            dispatch="subprocess", workers=2,
        ).to_json()
        assert sub == serial

    def test_cold_with_cache_and_warm_byte_identical(self, tmp_path):
        sweep = small_sweep()
        plain = run_sweep(sweep, arithmetic_cell).to_json()
        cache = tmp_path / "cache"
        cold = run_sweep(
            sweep, arithmetic_cell, dispatch="subprocess", workers=2,
            cache=cache,
        ).to_json()
        warm = run_sweep(sweep, arithmetic_cell, cache=cache).to_json()
        warm_dispatched = run_sweep(
            sweep, arithmetic_cell, dispatch="subprocess", workers=2,
            cache=cache,
        ).to_json()
        assert plain == cold == warm == warm_dispatched

    def test_dispatch_stats_recorded_with_cache(self, tmp_path):
        cache = tmp_path / "cache"
        backend = SubprocessDispatch(workers=2)
        run_sweep(small_sweep(), arithmetic_cell, dispatch=backend, cache=cache)
        payload = load_dispatch_stats(cache)
        assert len(payload["runs"]) == 1
        entry = payload["runs"][0]
        assert entry["backend"] == "subprocess"
        assert entry["completed"] == 8
        assert entry["cells_total"] == 8 and entry["cells_cached"] == 0
        assert set(entry["per_worker"]) == {"local/0", "local/1"}

    def test_scenario_cells_over_subprocess(self):
        # Full-stack cells (kernel, protocol, invariant checks) through the
        # frame protocol: the sharpest byte-identity probe we have.
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
        serial = sweep.run().to_json()
        sub = sweep.run(dispatch="subprocess", workers=2).to_json()
        assert sub == serial


class TestCrashRecovery:
    pytestmark = pytest.mark.slow

    def test_killed_worker_requeues_and_output_identical(self, tmp_path):
        marker = str(tmp_path / "killed")
        sweep = Sweep(
            base={"marker": marker, "victim": 3}, seeds=2
        ).axis("x", [1, 2, 3, 4, 5, 6])
        serial = run_sweep(sweep, flaky_worker_cell).to_json()
        assert not os.path.exists(marker)  # serial runs never trigger it

        # max_copies=1 disables stealing, so the crashed worker's cells
        # (the victim itself, at minimum) can only come back via requeue —
        # otherwise a fast survivor can steal them first and hide the crash.
        backend = SubprocessDispatch(workers=2, max_copies=1)
        dispatched = run_sweep(
            sweep, flaky_worker_cell, dispatch=backend
        ).to_json()
        assert dispatched == serial
        assert os.path.exists(marker)  # exactly one worker died
        assert backend.stats.reissued >= 1
        assert sum(
            1 for w in backend.stats.per_worker.values() if w["crashed"]
        ) == 1

    def test_all_workers_dead_raises(self):
        # A worker command that exits immediately: no results, clear error.
        backend = SubprocessDispatch(workers=2, python="/bin/false")
        with pytest.raises(DispatchError, match="workers exited"):
            run_sweep(small_sweep(), arithmetic_cell, dispatch=backend)

    def test_cell_error_propagates_from_worker(self):
        sweep = Sweep(base={"fail_at": 3}, seeds=1).axis("x", [1, 2, 3, 4])
        with pytest.raises(SweepCellError, match="designated failure") as info:
            run_sweep(sweep, failing_cell, dispatch="subprocess", workers=2)
        assert info.value.params == {"fail_at": 3, "x": 3}
        assert info.value.replicate == 0


class TestStragglers:
    pytestmark = pytest.mark.slow

    def test_tail_cells_stolen_and_deduped(self):
        # The first cell sleeps; nine instant cells follow.  With two
        # workers the idle one must steal the sleeper's queue, and the
        # late duplicates must be discarded first-result-wins.
        sweep = Sweep(base={"x": 1}, seeds=1).axis(
            "sleep_s", [0.8] + [0.0] * 9
        )
        serial = run_sweep(sweep, sleepy_cell).to_json()
        backend = SubprocessDispatch(workers=2)
        out = run_sweep(sweep, sleepy_cell, dispatch=backend).to_json()
        assert out == serial
        assert backend.stats.stolen >= 1
        assert backend.stats.dispatched >= backend.stats.completed
        assert backend.stats.completed == 10

    def test_window_adapts_to_fast_cells(self):
        sweep = Sweep(base={}, seeds=1).axis("x", list(range(40)))
        backend = SubprocessDispatch(workers=1)
        run_sweep(sweep, arithmetic_cell, dispatch=backend)
        # Micro-cells: the in-flight window must have opened well past the
        # initial 2 (bounded by max_window).
        assert backend.stats.window > 2
        assert backend.stats.window <= backend.max_window


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
        run_sweep(
            small_sweep(), arithmetic_cell, cache=cache_dir,
            dispatch="subprocess", dispatch_params={"workers": 2},
        )
        assert cli_main(["stats", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "dispatch:" in out and "subprocess" in out
        assert "local/0" in out  # per-worker timing of the last run

        assert cli_main(["stats", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        agg = payload["dispatch"]["by_backend"]["subprocess"]
        assert agg["runs"] == 1 and agg["dispatched"] >= 8
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
