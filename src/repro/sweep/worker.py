"""The side of a pooled sweep that runs inside each worker process.

:func:`repro.sweep.dispatch.run_pool` starts every pool process with
:func:`_init_worker`, which installs the runner and the shared context
once per process (so a heavyweight context such as a trace is shipped per
worker, not per cell) and runs the context's ``prepare_worker()`` hook.
Each submitted chunk then runs through :func:`_run_chunk`, which applies
the same :func:`repro.sweep.executor._execute` as a serial run, so a
pooled run returns exactly the :class:`~repro.sweep.result.CellRun` a
serial run would have produced.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.sweep.executor import _execute, _prepare_context, _Task
from repro.sweep.result import CellRun

# Worker-process state, installed once per worker by the pool initializer.
_worker_state: Dict[str, Any] = {}


def _init_worker(runner: Callable[..., Any], context: Any, keep_results: bool) -> None:
    _worker_state["runner"] = runner
    _worker_state["context"] = context
    _worker_state["keep_results"] = keep_results
    _prepare_context(context)


def _run_chunk(chunk: List[_Task]) -> List[Tuple[int, int, CellRun]]:
    return [
        _execute(
            _worker_state["runner"],
            _worker_state["context"],
            task,
            _worker_state["keep_results"],
        )
        for task in chunk
    ]
