"""The process pool behind ``run_sweep(workers=N)`` and its stats trail.

The executor (:func:`repro.sweep.executor.run_sweep`) decides *what* runs
— cache misses, in grid order — and :func:`run_pool` fans those runs out
to a :class:`~concurrent.futures.ProcessPoolExecutor` on this host, in
chunks of :func:`auto_chunksize` runs.  Each worker process receives the
runner and the shared context once, through its initializer (see
:mod:`repro.sweep.worker`), and each completed chunk is handed back to the
executor as it arrives, so a cache-backed sweep streams every finished
run into its cache before the rest are done.

A worker that dies mid-sweep (a segfault, ``os._exit``, the OOM killer)
breaks the pool.  :func:`run_pool` then fails the sweep with a
:class:`~repro.sweep.grid.SweepError` naming the runs that had not
finished, instead of waiting for results that will never come.  Nothing is
retried: with a cache, a rerun computes only the missing runs.

When the sweep has a cache, every pooled run appends one record to the
cache directory's ``dispatch-stats.json`` trail (:func:`record_dispatch`),
which ``repro-sweep stats`` and ``repro-report`` read back.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Mapping, Union

from repro.sweep.executor import _Task
from repro.sweep.grid import SweepError
from repro.sweep.result import CellRun
from repro.sweep.worker import _init_worker, _run_chunk

__all__ = [
    "auto_chunksize",
    "run_pool",
    "record_dispatch",
    "load_dispatch_stats",
    "DISPATCH_STATS_FILE",
]

#: Unfinished runs listed by name when a worker's death breaks the pool.
_LOST_SHOWN = 10


def auto_chunksize(n_tasks: int, workers: int) -> int:
    """Pool chunk size aiming at ~4 chunks per worker, clamped to [1, 32].

    Small enough that a straggler chunk cannot hold more than a quarter
    of one worker's share, large enough that per-chunk IPC stops
    dominating micro-cells (one pickle round trip per cell would).
    """
    if n_tasks <= 0 or workers <= 0:
        return 1
    return max(1, min(32, n_tasks // (workers * 4) or 1))


def _lost_runs_error(lost: List[_Task]) -> SweepError:
    lines = [
        f"  cell: {json.dumps(params, sort_keys=True, default=repr)} "
        f"replicate {replicate} seed {seed}"
        for _index, _cell, params, replicate, seed in lost[:_LOST_SHOWN]
    ]
    if len(lost) > _LOST_SHOWN:
        lines.append(f"  (+{len(lost) - _LOST_SHOWN} more)")
    return SweepError(
        f"a sweep worker process died; {len(lost)} runs did not finish:\n"
        + "\n".join(lines)
    )


def run_pool(
    tasks: List[_Task],
    runner: Callable[..., Any],
    context: Any,
    keep_results: bool,
    workers: int,
    emit: Callable[[int, int, CellRun], None],
) -> Dict[str, Any]:
    """Run ``tasks`` on ``workers`` processes; return the trail record.

    ``emit(index, cell_index, run)`` is called in the parent once per
    task, in completion order.  Any exception — a cell error, an
    invariant violation raised by ``emit``, a dead worker — cancels the
    chunks still queued and propagates.
    """
    chunk = auto_chunksize(len(tasks), workers)
    started = time.perf_counter()
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(runner, context, keep_results),
    )
    try:
        chunks = {
            pool.submit(_run_chunk, tasks[i:i + chunk]): tasks[i:i + chunk]
            for i in range(0, len(tasks), chunk)
        }
        completed = 0
        for future in as_completed(chunks):
            try:
                results = future.result()
            except BrokenProcessPool as exc:
                # The broken pool fails every unfinished chunk; wait for
                # all of them to settle so the error can name them.
                wait(chunks)
                lost = [
                    task
                    for other, chunk_tasks in chunks.items()
                    if isinstance(other.exception(), BrokenProcessPool)
                    for task in chunk_tasks
                ]
                raise _lost_runs_error(lost) from exc
            for index, cell_index, run in results:
                completed += 1
                emit(index, cell_index, run)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    return {
        "backend": "local-pool",
        "workers": workers,
        "chunksize": chunk,
        "dispatched": len(tasks),
        "completed": completed,
        # Always 0 (nothing is stolen, re-issued or run twice); kept
        # because the trail's readers, the sweep_pool2 benchmark among
        # them, read these keys.
        "stolen": 0,
        "reissued": 0,
        "duplicates": 0,
        "wall_s": round(time.perf_counter() - started, 6),
    }


DISPATCH_STATS_FILE = "dispatch-stats.json"

#: Most recent dispatch records kept per cache directory.
_STATS_KEEP = 50

#: Lockfile serializing the stats trail's read-modify-write.
_STATS_LOCK_FILE = DISPATCH_STATS_FILE + ".lock"

#: Bounded lock acquisition: retries × sleep bounds the wait at ~2 s, and
#: a lock older than this many seconds is considered abandoned (a crashed
#: writer) and broken.
_LOCK_RETRIES = 200
_LOCK_SLEEP_S = 0.01
_LOCK_STALE_S = 10.0


def load_dispatch_stats(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """The ``dispatch-stats.json`` payload of a cache dir (empty if none)."""
    stats_path = pathlib.Path(path) / DISPATCH_STATS_FILE
    if not stats_path.is_file():
        return {"schema": 1, "runs": []}
    try:
        payload = json.loads(stats_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {"schema": 1, "runs": []}
    if not isinstance(payload, dict) or not isinstance(payload.get("runs"), list):
        return {"schema": 1, "runs": []}
    return payload


class _StatsLock:
    """``O_EXCL`` lockfile with bounded retry and stale-lock breaking.

    ``os.replace`` makes each *write* of the trail atomic, but append is a
    read-modify-write: two concurrent sweeps finishing into one cache dir
    would each read the same trail and the second ``os.replace`` silently
    drops the first's record.  Creating the lockfile with
    ``O_CREAT | O_EXCL`` is atomic on POSIX and NFS alike; a holder that
    died is detected by the lockfile's age and broken so a crashed sweep
    can never wedge the trail.  If the lock cannot be acquired within the
    retry budget the append proceeds unlocked — stats are best-effort and
    must never deadlock a sweep.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.path = root / _STATS_LOCK_FILE
        self.acquired = False

    def __enter__(self) -> "_StatsLock":
        for _ in range(_LOCK_RETRIES):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                try:
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    continue  # holder released between open and stat
                if age > _LOCK_STALE_S:
                    try:
                        os.unlink(self.path)
                    except OSError:
                        pass
                    continue
                time.sleep(_LOCK_SLEEP_S)
            except OSError:
                return self  # unwritable dir: fall back to unlocked append
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(str(os.getpid()))
                self.acquired = True
                return self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.acquired:
            try:
                os.unlink(self.path)
            except OSError:
                pass


def record_dispatch(
    path: Union[str, pathlib.Path], entry: Mapping[str, Any]
) -> None:
    """Append one dispatch record to the cache dir's stats trail.

    The read-modify-write is serialized by an ``O_EXCL`` lockfile (see
    :class:`_StatsLock`), so concurrent sweeps sharing a cache directory
    append rather than overwrite each other; the trail is trimmed to the
    last :data:`_STATS_KEEP` records *after* the merge, and the final
    write is still an atomic ``os.replace``.
    """
    root = pathlib.Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with _StatsLock(root):
        payload = load_dispatch_stats(root)
        payload["schema"] = 1
        payload["runs"] = (payload["runs"] + [dict(entry)])[-_STATS_KEEP:]
        stats_path = root / DISPATCH_STATS_FILE
        fd, tmp = tempfile.mkstemp(dir=root, prefix=".dispatch-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, stats_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
