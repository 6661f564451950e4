"""Worker-side failures must name the failing cell, not just the pool.

Regression tests for the profiling-era bug: a runner exception inside a
multiprocessing worker surfaced as a bare pool traceback, with no way to
tell which of thousands of cells (or which replicate/seed) died.
"""

import json
import multiprocessing
import pickle

import pytest

from repro.sweep import Sweep, SweepCellError


def _explodes_on_x3(params, seed, context):
    if params["x"] == 3:
        raise ValueError(f"boom at x={params['x']}")
    return {"value": params["x"]}


def _cpus() -> int:
    try:
        import os

        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return multiprocessing.cpu_count()


class TestCellErrorMessages:
    def test_serial_error_carries_cell_json(self):
        sweep = Sweep(seeds=1).axis("x", [1, 2, 3, 4])
        with pytest.raises(SweepCellError) as excinfo:
            sweep.run(_explodes_on_x3, workers=0)
        message = str(excinfo.value)
        assert '{"x": 3}' in message
        assert "ValueError" in message and "boom at x=3" in message
        assert "replicate: 0" in message
        assert excinfo.value.params == {"x": 3}
        assert excinfo.value.replicate == 0
        assert isinstance(excinfo.value.seed, int)

    def test_pooled_error_carries_cell_json(self):
        if _cpus() < 2:
            pytest.skip("needs >= 2 CPUs for a meaningful pool")
        sweep = Sweep(seeds=1).axis("x", [1, 2, 3, 4])
        with pytest.raises(SweepCellError) as excinfo:
            sweep.run(_explodes_on_x3, workers=2)
        message = str(excinfo.value)
        assert '{"x": 3}' in message
        assert "boom at x=3" in message
        # Structured fields survived the pool's pickling round trip.
        assert excinfo.value.params == {"x": 3}

    def test_error_pickles_losslessly(self):
        err = SweepCellError("msg", params={"a": 1}, replicate=2, seed=99)
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == "msg"
        assert clone.params == {"a": 1}
        assert clone.replicate == 2 and clone.seed == 99

    def test_seed_in_message_reproduces_cell(self):
        """The (cell, seed) pair in the message is the real derived seed."""
        from repro.sweep import derive_seed

        sweep = Sweep(seeds=1).axis("x", [3])
        with pytest.raises(SweepCellError) as excinfo:
            sweep.run(_explodes_on_x3, workers=0)
        assert excinfo.value.seed == derive_seed(0, {"x": 3}, 0)


class TestPrepareWorkerHook:
    def test_mapping_context_without_hook_is_fine(self):
        result = Sweep(seeds=1).axis("x", [1]).run(
            lambda p, s, c: {"v": float(c["base"])}, workers=0, context={"base": 2}
        )
        assert result.ok
