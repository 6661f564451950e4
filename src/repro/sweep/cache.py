"""Content-addressed cell cache: incremental sweep re-runs.

Every figure of the paper is a grid of (cell, replicate) runs, and every
run is deterministic — same params, same derived seed, same code, same
result.  That makes a sweep memoisable by fingerprint, the discipline
training/eval harnesses use: a :class:`SweepCache` maps

    sha256(cell params, replicate seed, runner identity, context token,
           code fingerprint over ``src/repro/**``)

to a JSON **shard** holding one :class:`~repro.sweep.result.CellRun`.
:func:`~repro.sweep.executor.run_sweep` consults the cache before
computing each run and writes back after, so a warm re-run of
``reproduce_figures.py --cache DIR`` computes zero cells; editing any
module under :mod:`repro` changes the code fingerprint and invalidates
everything, while flipping one axis value recomputes exactly the
affected cells.

Design rules:

* **Keys are content-addressed.**  A key covers everything a run's output
  depends on: the materialised cell params (which include the checks
  subset for scenario cells), the derived replicate seed, the runner's
  identity (module:qualname, plus its source hash when it lives outside
  the :mod:`repro` package), the shared context's token (see
  :func:`context_token`) and the :func:`code_fingerprint`.  Nothing is
  ever invalidated *in place* — a change produces a different key and the
  stale shard becomes garbage for :func:`gc`.
* **Shards are verified on load.**  Each shard embeds a history
  fingerprint (sha256 of the canonical run payload); a shard whose stored
  fingerprint does not match — truncated write, manual edit, bit rot — is
  treated as a miss and recomputed, never served.  In particular a shard
  recording invariant **violations** is only ever served after this
  re-check, so a tampered violation record cannot poison ``on_violation``
  handling.
* **Writes are atomic.**  Shards land via temp-file + ``os.replace`` so
  concurrent writers (a pooled run's parent, or two sweep processes
  sharing one cache directory) can only ever publish complete shards;
  last writer wins with byte-identical content.
* **Cached and fresh runs merge byte-identically.**  Run payloads are
  canonicalised through a JSON round trip at store time and the
  normalised run is what the executor records, so a warm
  :class:`~repro.sweep.result.SweepResult` serialises byte-for-byte equal
  to the cold one that populated the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.sweep.grid import SweepError, canonical_params
from repro.sweep.result import CellRun

__all__ = [
    "SweepCache",
    "CacheStats",
    "code_fingerprint",
    "runner_token",
    "context_token",
    "gc",
    "cache_stats",
]

SHARD_SCHEMA = 1

#: Name of the best-effort counters file inside a cache directory.
STATS_FILE = "cache-stats.json"

_code_fingerprint_memo: Dict[str, str] = {}


def code_fingerprint(root: Optional[Union[str, pathlib.Path]] = None) -> str:
    """Combined sha256 over every ``*.py`` source of the repro package.

    Any edit to any module under ``src/repro/**`` changes this value and
    thereby every cache key — coarse on purpose: sweeping correctness
    beats shaving a cold run, and stale shards are reclaimed by
    :func:`gc`, not trusted.  Memoised per root path per process (the
    tree cannot change under a running sweep's feet without also changing
    the code that is running).
    """
    if root is None:
        import repro

        root = pathlib.Path(repro.__file__).parent
    root = pathlib.Path(root)
    memo_key = str(root)
    cached = _code_fingerprint_memo.get(memo_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _code_fingerprint_memo[memo_key] = value
    return value


def runner_token(runner: Callable[..., Any]) -> str:
    """Stable identity of a cell runner.

    ``module:qualname`` for runners inside the :mod:`repro` package
    (their source is already covered by :func:`code_fingerprint`); for
    runners defined elsewhere (examples, tests) the token
    additionally hashes the defining file, so editing an external runner
    invalidates its cells just like editing the package would.
    """
    module = getattr(runner, "__module__", "") or ""
    qualname = getattr(runner, "__qualname__", repr(runner))
    token = f"{module}:{qualname}"
    if module == "repro" or module.startswith("repro."):
        return token
    import inspect

    try:
        source = inspect.getsourcefile(runner)
    except TypeError:
        source = None
    if source and os.path.exists(source):
        with open(source, "rb") as fh:
            token += ":" + hashlib.sha256(fh.read()).hexdigest()[:16]
    return token


def context_token(context: Any) -> str:
    """A content token for the executor's shared ``context`` object.

    The context participates in a run's output (a trace, a mapping of
    scenario defaults), so it must participate in the key.  Resolution
    order:

    * ``None`` — the empty token;
    * an object exposing ``cache_token()`` (e.g.
      :meth:`repro.workload.trace.Trace.cache_token`) — its value;
    * any JSON-encodable value — sha256 of its canonical encoding;
    * anything else — a :class:`~repro.sweep.grid.SweepError`: an opaque
      context cannot be fingerprinted, so it cannot be cached safely.
    """
    if context is None:
        return ""
    token = getattr(context, "cache_token", None)
    if callable(token):
        return str(token())
    try:
        encoded = json.dumps(context, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        raise SweepError(
            f"cannot cache a sweep whose context ({type(context).__name__}) "
            f"is neither JSON-encodable nor exposes cache_token()"
        ) from None
    return "sha256:" + hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _history_fingerprint(payload: Mapping[str, Any]) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class CacheStats:
    """Session counters of one :class:`SweepCache` instance."""

    __slots__ = ("hits", "misses", "stores", "corrupt")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"stores={self.stores}, corrupt={self.corrupt})"
        )


class SweepCache:
    """On-disk, content-addressed store of per-(cell, replicate) shards.

    ``path`` is created on first use.  ``fingerprint`` overrides the code
    fingerprint (tests inject synthetic values to exercise invalidation);
    ``extra`` is an optional JSON-encodable salt mixed into every key —
    the hook for out-of-band inputs the params don't carry (an explicit
    checks subset handed to a custom runner, a dataset revision, ...).
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        fingerprint: Optional[str] = None,
        extra: Any = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = (
            fingerprint if fingerprint is not None else code_fingerprint()
        )
        if extra is not None:
            canonical_params({"extra": extra})  # fail fast on objects
        self.extra = extra
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    def key(
        self,
        runner: Callable[..., Any],
        params: Mapping[str, Any],
        replicate: int,
        seed: int,
        context_tok: str = "",
    ) -> str:
        material = json.dumps(
            {
                "code": self.fingerprint,
                "context": context_tok,
                "extra": self.extra,
                "params": dict(params),
                "replicate": replicate,
                "runner": runner_token(runner),
                "seed": seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def shard_path(self, key: str) -> pathlib.Path:
        return self.path / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def lookup(
        self,
        runner: Callable[..., Any],
        params: Mapping[str, Any],
        replicate: int,
        seed: int,
        context_tok: str = "",
    ) -> Optional[CellRun]:
        """The cached run, or None on miss/corruption (counted apart)."""
        run = self._load(self.key(runner, params, replicate, seed, context_tok))
        if run is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return run

    def contains(
        self,
        runner: Callable[..., Any],
        params: Mapping[str, Any],
        replicate: int,
        seed: int,
        context_tok: str = "",
    ) -> bool:
        """Verified presence check; does not touch the session counters."""
        return (
            self._load(self.key(runner, params, replicate, seed, context_tok))
            is not None
        )

    def _load(self, key: str) -> Optional[CellRun]:
        path = self.shard_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                shard = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self.stats.corrupt += 1
            return None
        try:
            if shard["schema"] != SHARD_SCHEMA or shard["key"] != key:
                self.stats.corrupt += 1
                return None
            payload = shard["run"]
            # The history fingerprint is re-checked on *every* load — a
            # shard whose stored payload drifted (truncation, edits) is
            # recomputed, and recorded invariant violations in particular
            # are never served without passing this check.
            if shard["history_fingerprint"] != _history_fingerprint(payload):
                self.stats.corrupt += 1
                return None
            return CellRun.from_dict(payload)
        except (KeyError, TypeError):
            self.stats.corrupt += 1
            return None

    def store(
        self,
        runner: Callable[..., Any],
        params: Mapping[str, Any],
        replicate: int,
        seed: int,
        run: CellRun,
        context_tok: str = "",
    ) -> CellRun:
        """Write one shard atomically; returns the canonicalised run.

        The returned :class:`CellRun` has been round-tripped through the
        shard's JSON encoding, so the executor records exactly what a
        warm run would load — cold-with-cache and warm results are
        byte-identical by construction.
        """
        key = self.key(runner, params, replicate, seed, context_tok)
        payload = json.loads(json.dumps(run.to_dict()))
        shard = {
            "schema": SHARD_SCHEMA,
            "key": key,
            "code_fingerprint": self.fingerprint,
            "runner": runner_token(runner),
            "context": context_tok,
            "params": dict(params),
            "replicate": replicate,
            "seed": seed,
            "run": payload,
            "history_fingerprint": _history_fingerprint(payload),
        }
        path = self.shard_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(shard, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return CellRun.from_dict(payload)

    # ------------------------------------------------------------------
    # Persistent counters (best effort, for `repro-sweep stats`)
    # ------------------------------------------------------------------

    def flush_stats(self) -> None:
        """Merge this session's counters into ``cache-stats.json``.

        Read-modify-write without a lock: two simultaneous sweeps may
        lose each other's increment, which only skews the *reported* hit
        rate — never correctness.  The write itself is atomic, so the
        file is always valid JSON.
        """
        if self.stats.lookups == 0 and self.stats.stores == 0:
            return
        path = self.path / STATS_FILE
        totals = {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0, "runs": 0}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                recorded = json.load(fh)
            for name in totals:
                totals[name] = int(recorded.get(name, 0))
        except (OSError, ValueError):
            pass
        totals["hits"] += self.stats.hits
        totals["misses"] += self.stats.misses
        totals["stores"] += self.stats.stores
        totals["corrupt"] += self.stats.corrupt
        totals["runs"] += 1
        self.path.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.path, prefix=".stats-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(totals, fh, sort_keys=True, indent=2)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SweepCache({str(self.path)!r}, "
            f"fingerprint={self.fingerprint[:12]}..., {self.stats!r})"
        )


# ----------------------------------------------------------------------
# Maintenance (the `repro-sweep` CLI is a thin wrapper over these)
# ----------------------------------------------------------------------


def _iter_shards(path: pathlib.Path):
    for sub in sorted(path.iterdir()) if path.is_dir() else ():
        if not sub.is_dir() or len(sub.name) != 2:
            continue
        for shard in sorted(sub.glob("*.json")):
            yield shard


def cache_stats(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Inventory of a cache directory: shards, bytes, fingerprints,
    recorded hit/miss counters (see :meth:`SweepCache.flush_stats`)."""
    path = pathlib.Path(path)
    current = code_fingerprint()
    shards = 0
    total_bytes = 0
    stale = 0
    unreadable = 0
    fingerprints: Dict[str, int] = {}
    for shard_path in _iter_shards(path):
        shards += 1
        total_bytes += shard_path.stat().st_size
        try:
            with open(shard_path, "r", encoding="utf-8") as fh:
                shard = json.load(fh)
            fingerprint = shard["code_fingerprint"]
        except (OSError, ValueError, KeyError, TypeError):
            unreadable += 1
            continue
        fingerprints[fingerprint] = fingerprints.get(fingerprint, 0) + 1
        if fingerprint != current:
            stale += 1
    counters = {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0, "runs": 0}
    try:
        with open(path / STATS_FILE, "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
        for name in counters:
            counters[name] = int(recorded.get(name, 0))
    except (OSError, ValueError):
        pass
    lookups = counters["hits"] + counters["misses"]
    return {
        "path": str(path),
        "shards": shards,
        "bytes": total_bytes,
        "code_fingerprint": current,
        "fingerprints": fingerprints,
        "stale_shards": stale,
        "unreadable_shards": unreadable,
        "counters": counters,
        "hit_rate": (counters["hits"] / lookups) if lookups else None,
    }


def gc(
    path: Union[str, pathlib.Path],
    remove_all: bool = False,
    dry_run: bool = False,
) -> Dict[str, Any]:
    """Evict stale shards: wrong code fingerprint or unreadable.

    ``remove_all`` clears every shard regardless of fingerprint (a cache
    reset); ``dry_run`` reports what would go without deleting.  Returns
    ``{"evicted": n, "bytes": b, "kept": k}``.
    """
    path = pathlib.Path(path)
    current = code_fingerprint()
    evicted = 0
    freed = 0
    kept = 0
    for shard_path in _iter_shards(path):
        size = shard_path.stat().st_size
        doomed = remove_all
        if not doomed:
            try:
                with open(shard_path, "r", encoding="utf-8") as fh:
                    shard = json.load(fh)
                doomed = shard["code_fingerprint"] != current
            except (OSError, ValueError, KeyError, TypeError):
                doomed = True
        if doomed:
            evicted += 1
            freed += size
            if not dry_run:
                shard_path.unlink()
        else:
            kept += 1
    if not dry_run and path.is_dir():
        for sub in path.iterdir():
            if sub.is_dir() and len(sub.name) == 2 and not any(sub.iterdir()):
                sub.rmdir()
    return {"evicted": evicted, "bytes": freed, "kept": kept}
