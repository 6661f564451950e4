"""Every workload at smoke size emits what ``BENCHMARK.json`` declares.

No timing assertions: the sizes are far below what a timing needs.
"""

import json
import re
import subprocess
import sys

import pytest

from bench import ROOT, load_contract
from bench.compare import compare

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
#: figures_fast has one size (~7 s), so it runs once and untraced here.
TRACED = ["slow_receiver", "replicated_game", "sweep_pool2", "live_loopback"]


def bench(*argv):
    return subprocess.run(
        [sys.executable, "-m", "bench", *argv], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, check=True,
    ).stdout


@pytest.fixture(scope="module")
def contract():
    return load_contract()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``(result file, stdout)`` of the untraced and of the traced smoke run."""
    out = tmp_path_factory.mktemp("bench")
    runs = {}
    for label, argv in (
        ("untraced", ["--workload", "figures_fast"]),
        ("traced", ["--trace", *(a for w in TRACED for a in ("--workload", w))]),
    ):
        path = out / f"{label}.json"
        stdout = bench("run", "--scale", "smoke", "--out", str(path), *argv)
        with open(path, "r", encoding="utf-8") as fh:
            runs[label] = (path, json.load(fh), stdout)
    return runs


def test_contract_is_within_the_drivers_limits(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_list_prints_every_declared_name(contract):
    listing = bench("list")
    for key in ("workloads", "end_to_end", "per_layer"):
        for entry in contract[key]:
            assert re.search(rf"^\s+{re.escape(entry['name'])}\s", listing, re.M)


def test_every_workload_emits_every_end_to_end_metric(contract, smoke):
    declared = {m["name"] for m in contract["end_to_end"]}
    seen = {}
    for _path, result, _stdout in smoke.values():
        seen.update(result["workloads"])
    assert set(seen) == {w["name"] for w in contract["workloads"]}
    for name, workload in seen.items():
        assert set(workload["metrics"]) == declared, name
        assert all(m["value"] > 0 for m in workload["metrics"].values()), name
        assert workload["correct"] and workload["failed"] == 0, name
        assert workload["attempted"] >= 1


def test_digests_repeat_across_iterations(smoke):
    for name, workload in smoke["traced"][1]["workloads"].items():
        assert workload["iterations"] >= 2, name
        assert len(workload["digests"]) == 1, name
        assert workload["trace"]["digest"] == workload["digests"][0], name


def test_traced_passes_emit_exactly_the_declared_layer_metrics(contract, smoke):
    declared = {m["name"] for m in contract["per_layer"]}
    emitted = set()
    for name, workload in smoke["traced"][1]["workloads"].items():
        assert "trace_error" not in workload, workload.get("trace_error")
        assert workload["trace"]["missing"] == [], name
        emitted |= set(workload["trace"]["layer"])
    assert emitted == declared


def test_last_line_is_the_drivers_object(contract, smoke):
    for label, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
        line = json.loads(smoke[label][2].splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in contract[key]]
        for metric in contract[key]:
            entry = line["metrics"][metric["name"]]
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == metric["unit"]


def test_comparing_a_result_with_itself_never_regresses(contract, smoke, capsys):
    path = smoke["traced"][0]
    assert compare(path, path, contract) == 0
    verdicts = {line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:-1]}
    # Smoke iterations last milliseconds, so their own spread may exceed a
    # bound; what a self-comparison may never say is that anything moved.
    assert verdicts <= {"unchanged", "unresolved"}


def write_result(path, wall, failed=0):
    samples = {"wall_s": wall, "cpu_s": wall, "peak_rss_mb": [50.0],
               "setup_s": [0.40, 0.41, 0.42], "deliver_p50_ms": [4.0, 4.1, 4.2],
               "deliver_p99_ms": [6.0, 6.1, 6.2]}
    metrics = {
        name: {"value": sorted(values)[len(values) // 2], "samples": values}
        for name, values in samples.items()
    }
    workload = {"metrics": metrics, "attempted": 100, "failed": failed,
                "failed_share": failed / 100}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workloads": {"slow_receiver": workload}}, fh)
    return str(path)


def verdicts_of(capsys):
    rows = capsys.readouterr().out.splitlines()[1:-1]
    return {row.split()[1]: row.split()[-1] for row in rows}


def test_compare_verdicts(contract, tmp_path, capsys):
    bound = next(m["bound"] for m in contract["end_to_end"] if m["name"] == "wall_s")
    base = write_result(tmp_path / "a.json", [5.00, 5.02, 5.04])
    assert compare(base, base, contract) == 0
    assert set(verdicts_of(capsys).values()) == {"unchanged"}

    slower = write_result(
        tmp_path / "b.json", [v * (1 + 2 * bound) for v in (5.00, 5.02, 5.04)]
    )
    assert compare(base, slower, contract) == 1
    seen = verdicts_of(capsys)
    assert seen["wall_s"] == seen["cpu_s"] == "regressed"
    assert seen["setup_s"] == seen["failed_share"] == "unchanged"
    assert compare(slower, base, contract) == 0
    assert verdicts_of(capsys)["wall_s"] == "improved"

    noisy = write_result(
        tmp_path / "c.json", [5.0 * (1 - bound), 5.0, 5.0 * (1 + bound)]
    )
    assert compare(base, noisy, contract) == 0
    assert verdicts_of(capsys)["wall_s"] == "unresolved"

    failing = write_result(tmp_path / "d.json", [5.00, 5.02, 5.04], failed=1)
    assert compare(base, failing, contract) == 1
    assert verdicts_of(capsys)["failed_share"] == "regressed"
