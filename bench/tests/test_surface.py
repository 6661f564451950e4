"""Refactor-proofing: the benchmark touches :mod:`repro` only through its
declared public surface, and the tracer survives what a refactor removes."""

import argparse
import ast
import importlib
import sys
import time
from pathlib import Path

import pytest

import bench.child
from bench.surface import PUBLIC_SURFACE

SOURCES = sorted(Path(__file__).resolve().parent.parent.glob("*.py"))


def repro_imports(tree):
    """``(module, name)`` for every ``repro`` import; name None = the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_sources_stay_on_the_public_surface(source):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    for module, name in repro_imports(tree):
        assert module == "repro" or module in PUBLIC_SURFACE, (source.name, module)
        if name is not None:
            assert name in PUBLIC_SURFACE[module], (source.name, module, name)
    aliases = {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.asname and alias.name in PUBLIC_SURFACE
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            assert any(node.attr in names for names in PUBLIC_SURFACE.values()), (
                source.name, node.attr)
        if isinstance(node, ast.Call):
            passed = {keyword.arg for keyword in node.keywords}
            assert not passed & {"engine", "dispatch"}, (source.name, node.lineno)


def test_the_surface_is_exported():
    for module, names in PUBLIC_SURFACE.items():
        exported = importlib.import_module(module).__all__
        assert names <= set(exported), (module, names - set(exported))


def test_tracer_skips_what_is_absent_and_restores_what_it_patched(monkeypatch):
    import repro.analysis.experiments as exp
    from repro.sim import Simulator

    original_init = vars(Simulator)["__init__"]
    original_figure = exp.figure_5a
    monkeypatch.setitem(sys.modules, "repro.report", None)  # a hidden module
    monkeypatch.delattr(exp, "ablation_players")  # a hidden attribute
    result = bench.child.run(argparse.Namespace(
        workload="slow_receiver", seed=2002, scale="smoke", seconds=0.0,
        trace=1, setup_only=False, spawned_at=time.time(),
    ))
    assert "trace_error" not in result, result.get("trace_error")
    assert result["failed"] == 0 and len(result["metrics"]) == 5
    assert result["trace"]["missing"] == [
        "repro.analysis.experiments.ablation_players", "repro.report",
    ]
    layer = result["trace"]["layer"]
    assert layer["trace.missing"] == 2
    assert layer["analysis.experiments.figure_5a_s"] > 0
    assert layer["sim.kernel.events"] > 0
    assert vars(Simulator)["__init__"] is original_init
    assert exp.figure_5a is original_figure
