"""Cell execution: serial or multiprocess, always deterministic.

The executor turns a :class:`~repro.sweep.grid.Sweep` into a
:class:`~repro.sweep.result.SweepResult` by applying a **runner** to every
(cell, replicate) pair:

``runner(params, seed, context) -> Mapping | ScenarioResult``
    A module-level (hence picklable) callable.  ``params`` is the cell's
    materialised parameter dict, ``seed`` the deterministically derived
    replicate seed, ``context`` an arbitrary picklable object shared by
    every cell (a pre-generated trace, typically) — shipped to each worker
    once, not per cell.

Runners may return a :class:`~repro.scenario.result.ScenarioResult` (its
scalar metrics are flattened, its ``violations`` — the verdicts of
:func:`repro.core.spec.check_all` — travel with the cell) or any mapping of
metric values (an optional ``"violations"`` key is treated the same way).
Every cell is therefore invariant-checked *as it runs*; by default the
first violated cell aborts the sweep with :class:`SweepInvariantError`
(``on_violation="collect"`` records verdicts instead, for fuzzing).

Determinism does not depend on scheduling: seeds are derived from cell
identity, results are reassembled in grid order, and the serial and
pooled paths share the same per-cell code (:func:`_execute`), so
``workers=0`` and ``workers=8`` produce byte-identical aggregated JSON.
"""

from __future__ import annotations

import json
import pathlib
import traceback
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.scenario.result import ScenarioResult
from repro.sweep.cache import SweepCache, context_token
from repro.sweep.grid import Sweep, SweepError
from repro.sweep.result import CellResult, CellRun, SweepResult

__all__ = [
    "run_sweep",
    "flatten_metrics",
    "SweepCellError",
    "SweepInvariantError",
]


class SweepCellError(RuntimeError):
    """A cell runner raised; carries the cell coordinates and traceback.

    The message embeds the failing cell as a JSON dict (plus replicate and
    seed) so a pooled run's failure is reproducible from the error text
    alone — worker exceptions used to surface as a bare pool traceback
    with no indication of *which* of thousands of cells died.  The
    structured fields survive the pool's pickling round trip.
    """

    def __init__(
        self,
        message: str,
        params: Optional[Dict[str, Any]] = None,
        replicate: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.params = params
        self.replicate = replicate
        self.seed = seed

    def __reduce__(self):
        # RuntimeError's default reduce drops keyword state; keep the cell
        # coordinates intact across the multiprocessing boundary.
        return (
            self.__class__,
            (self.args[0], self.params, self.replicate, self.seed),
        )


class SweepInvariantError(RuntimeError):
    """A cell violated the executable specification."""

    def __init__(self, params: Mapping[str, Any], seed: int, violations: List[str]):
        self.params = dict(params)
        self.seed = seed
        self.violations = list(violations)
        preview = "; ".join(violations[:3])
        more = f" (+{len(violations) - 3} more)" if len(violations) > 3 else ""
        super().__init__(
            f"invariants violated in cell {self.params!r} (seed {seed}): "
            f"{preview}{more}"
        )


def flatten_metrics(obj: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten nested metric mappings to dotted scalar columns.

    ``{"throughput": {"delivered": {"0": 7}}}`` becomes
    ``{"throughput.delivered.0": 7.0}``; non-numeric leaves (lists of
    install events, strings) are skipped — they stay available through
    ``keep_results=True``.
    """
    out: Dict[str, float] = {}
    if isinstance(obj, Mapping):
        for key, value in obj.items():
            out.update(flatten_metrics(value, f"{prefix}{key}."))
    elif isinstance(obj, bool):
        out[prefix[:-1]] = float(obj)
    elif isinstance(obj, (int, float)):
        out[prefix[:-1]] = float(obj)
    return out


def _normalise(
    out: Any, params: Mapping[str, Any], keep_results: bool
) -> Tuple[Dict[str, float], List[str], Optional[Dict[str, Any]]]:
    """(metrics, violations, full-result dict) from a runner's output."""
    if isinstance(out, ScenarioResult):
        metrics = {"duration": float(out.duration)}
        metrics.update(flatten_metrics(out.metrics))
        violations = list(out.violations or [])
        return metrics, violations, (out.to_dict() if keep_results else None)
    if isinstance(out, Mapping):
        violations = list(out.get("violations") or [])
        metrics = flatten_metrics(
            {k: v for k, v in out.items() if k != "violations"}
        )
        return metrics, violations, (dict(out) if keep_results else None)
    raise SweepCellError(
        f"cell {dict(params)!r} returned {type(out).__name__}; runners must "
        f"return a ScenarioResult or a mapping of metrics"
    )


# ----------------------------------------------------------------------
# Per-run execution, shared verbatim by the serial and pooled paths.
# ----------------------------------------------------------------------

#: One unit of work: (flat index, cell index, params, replicate, seed).
_Task = Tuple[int, int, Dict[str, Any], int, int]


def _execute(
    runner: Callable[..., Any],
    context: Any,
    task: _Task,
    keep_results: bool,
) -> Tuple[int, int, CellRun]:
    index, cell_index, params, replicate, seed = task
    try:
        out = runner(params, seed, context)
    except SweepCellError:
        raise
    except Exception as exc:
        # Cell params came through the grid, so they are JSON-encodable by
        # construction — embed them verbatim for copy-paste reproduction.
        cell_json = json.dumps(params, sort_keys=True, default=repr)
        raise SweepCellError(
            f"sweep cell failed: {type(exc).__name__}: {exc}\n"
            f"  cell: {cell_json}\n"
            f"  replicate: {replicate}\n"
            f"  seed: {seed}\n"
            f"{traceback.format_exc()}",
            params=dict(params),
            replicate=replicate,
            seed=seed,
        ) from exc
    metrics, violations, full = _normalise(out, params, keep_results)
    run = CellRun(
        replicate=replicate,
        seed=seed,
        metrics=metrics,
        violations=violations,
        result=full,
    )
    return index, cell_index, run


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def run_sweep(
    sweep: Sweep,
    runner: Callable[..., Any],
    workers: Optional[int] = 0,
    context: Any = None,
    on_violation: str = "raise",
    keep_results: bool = False,
    progress: Optional[Callable[[int, int, CellRun], None]] = None,
    cache: Optional[Union[str, pathlib.Path, SweepCache]] = None,
) -> SweepResult:
    """Execute every (cell, replicate) of ``sweep`` with ``runner``.

    ``workers=0``/``None``/``1`` runs serially in-process; ``workers>=2``
    fans the runs out to a pool of that many processes on this host (see
    :mod:`repro.sweep.dispatch`), so ``runner`` and ``context`` must be
    picklable.  Either way the aggregated JSON is byte-identical —
    scheduling never leaks into results.  A pool worker that dies fails
    the sweep with a :class:`~repro.sweep.grid.SweepError` naming the
    runs that did not finish.  ``progress`` is called in the parent as
    ``progress(done, total, run)`` after every completed replicate.

    ``on_violation`` is the invariant policy: ``"raise"`` aborts on the
    first cell whose run violated the executable specification,
    ``"collect"`` records violations on the result (``SweepResult.ok``
    turns False).

    ``cache`` — a :class:`~repro.sweep.cache.SweepCache` or a directory
    path — memoises every (cell, replicate) by content address: runs
    found in the cache are recorded without computing (they still count
    toward ``progress`` and still trigger ``on_violation``), fresh runs
    are written back.  Both executors share one cache layout, so a
    serial run warms a later pooled run and vice versa, and the merged
    :class:`SweepResult` is byte-identical either way.  A pooled run
    stores each finished run as it arrives, and appends a record to the
    cache directory's ``dispatch-stats.json`` trail.
    """
    if on_violation not in ("raise", "collect"):
        raise SweepError(
            f"on_violation must be 'raise' or 'collect': {on_violation!r}"
        )
    if cache is not None and not isinstance(cache, SweepCache):
        cache = SweepCache(cache)
    cells = sweep.cells()
    tasks: List[_Task] = []
    for cell_index, params in enumerate(cells):
        for replicate, seed in enumerate(sweep.seeds_for(params)):
            tasks.append((len(tasks), cell_index, params, replicate, seed))

    runs: List[Optional[Tuple[int, CellRun]]] = [None] * len(tasks)
    done = 0

    def record(index: int, cell_index: int, run: CellRun) -> None:
        nonlocal done
        if on_violation == "raise" and run.violations:
            raise SweepInvariantError(
                cells[cell_index], run.seed, run.violations
            )
        runs[index] = (cell_index, run)
        done += 1
        if progress is not None:
            progress(done, len(tasks), run)

    try:
        pending = tasks
        ctx_tok = ""
        if cache is not None:
            # Hits are recorded up front (cache lookups are parent-side for
            # both executors — workers never touch the disk store); only the
            # misses are computed below.
            ctx_tok = context_token(context)
            pending = []
            for task in tasks:
                index, cell_index, params, replicate, seed = task
                run = cache.lookup(runner, params, replicate, seed, ctx_tok)
                if run is not None:
                    record(index, cell_index, run)
                else:
                    pending.append(task)

        def completed(index: int, cell_index: int, run: CellRun) -> None:
            if cache is not None:
                _i, _c, params, replicate, seed = tasks[index]
                # store() canonicalises the run through the shard's JSON
                # encoding, so what we record now is byte-for-byte what a
                # warm run will load.
                run = cache.store(runner, params, replicate, seed, run, ctx_tok)
            record(index, cell_index, run)

        if workers is None or workers < 2:
            for task in pending:
                index, cell_index, run = _execute(
                    runner, context, task, keep_results
                )
                completed(index, cell_index, run)
        elif pending:
            from repro.sweep.dispatch import record_dispatch, run_pool

            entry = run_pool(
                pending, runner, context, keep_results, workers, completed
            )
            if cache is not None:
                entry["cells_total"] = len(tasks)
                entry["cells_cached"] = len(tasks) - len(pending)
                record_dispatch(cache.path, entry)
    finally:
        if cache is not None:
            cache.flush_stats()

    grouped: List[List[CellRun]] = [[] for _ in cells]
    for entry in runs:
        assert entry is not None  # every task either recorded or raised
        cell_index, run = entry
        grouped[cell_index].append(run)
    for cell_runs in grouped:
        cell_runs.sort(key=lambda run: run.replicate)

    return SweepResult(
        base=dict(sweep.base),
        axes={name: list(values) for name, values in sweep.axes.items()},
        seeds=sweep.seeds,
        base_seed=sweep.base_seed,
        cells=[
            CellResult(params=params, runs=cell_runs)
            for params, cell_runs in zip(cells, grouped)
        ],
    )
