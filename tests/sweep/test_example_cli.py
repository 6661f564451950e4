"""The example CLIs' sweep options, driven as a user would run them.

``examples/sweep_grid.py --smoke`` is the grid CI's warm-cache lane
compares: a serial run, a pooled cold run and a pooled warm run must
write the same ``--out`` bytes.  Both examples choose parallelism with
``--workers`` alone.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"


def run_example(script, *args, cwd):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.slow
@pytest.mark.timeout(180)
def test_sweep_grid_pooled_cold_and_warm_match_serial(tmp_path):
    serial = run_example(
        "sweep_grid.py", "--smoke", "--out", "serial.json", cwd=tmp_path
    )
    assert serial.returncode == 0, serial.stderr
    for name in ("cold.json", "warm.json"):
        pooled = run_example(
            "sweep_grid.py", "--smoke", "--workers", "2",
            "--cache", "cache", "--out", name, cwd=tmp_path,
        )
        assert pooled.returncode == 0, pooled.stderr
    reference = (tmp_path / "serial.json").read_bytes()
    assert (tmp_path / "cold.json").read_bytes() == reference
    assert (tmp_path / "warm.json").read_bytes() == reference
    assert (tmp_path / "cache" / "dispatch-stats.json").is_file()


@pytest.mark.parametrize("script", ["sweep_grid.py", "reproduce_figures.py"])
def test_dispatch_flag_is_gone(tmp_path, script):
    result = run_example(script, "--dispatch", "local-pool", cwd=tmp_path)
    assert result.returncode == 2
    assert "unrecognized arguments: --dispatch" in result.stderr
