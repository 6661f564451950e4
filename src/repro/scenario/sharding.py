"""Opt-in per-group sharding over the sweep executor's worker seam.

The simulator models *one* group; capacity experiments often need many
independent groups (disjoint membership, no cross-group traffic — e.g.
10k processes as 10 shards of 1k).  Because such groups share nothing,
each shard can run as one sweep cell: the executor already provides the
picklable worker seam, deterministic per-cell seed derivation and
grid-order reassembly, so sharding inherits the sweep's guarantee that
``workers=0`` and ``workers=8`` produce byte-identical results.

Determinism rules (enforced by ``tests/scenario/test_sharding.py``):

* the scenario factory must be **module-level** (hence picklable) and
  build the shard's :class:`~repro.scenario.Scenario` purely from
  ``(shard_index, shard_seed)`` — no ambient state;
* shard seeds derive from ``(base_seed, {"shard": i})`` through the
  sweep's :func:`~repro.sweep.grid.derive_seed`, so adding shards never
  reseeds existing ones;
* the merged view is a pure fold over per-shard results in shard order.
  ``merged["totals"]`` sums every flattened scalar metric key-wise —
  meaningful for counters (messages sent, purge totals, delivery
  counts); read non-additive statistics (queue-depth means) from the
  per-shard results instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.scenario.builder import Scenario
from repro.scenario.result import ScenarioResult
from repro.sweep.executor import flatten_metrics, run_sweep
from repro.sweep.grid import Sweep

__all__ = ["ShardedResult", "run_sharded"]

#: ``factory(shard_index, shard_seed) -> Scenario`` — module-level so the
#: multiprocessing pool can ship it to workers by reference.
ShardFactory = Callable[[int, int], Scenario]


@dataclass
class ShardedResult:
    """Per-shard scenario results plus the deterministic merged view."""

    shards: List[ScenarioResult]
    merged: Dict[str, Any]

    @property
    def ok(self) -> bool:
        return all(shard.ok for shard in self.shards)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "merged": self.merged,
            "shards": [shard.to_dict() for shard in self.shards],
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _shard_runner(params: Dict[str, Any], seed: int, context: Any) -> ScenarioResult:
    factory, until, drain = context
    spec = factory(params["shard"], seed)
    if not isinstance(spec, Scenario):
        raise TypeError(
            f"shard factory returned {type(spec).__name__}; expected Scenario"
        )
    return spec.run(until, drain=drain)


def _merge(shards: List[ScenarioResult]) -> Dict[str, Any]:
    totals: Dict[str, float] = {}
    for shard in shards:
        for key, value in flatten_metrics(shard.metrics).items():
            totals[key] = totals.get(key, 0.0) + value
    return {
        "shards": len(shards),
        "processes": sum(shard.n for shard in shards),
        "totals": {key: totals[key] for key in sorted(totals)},
    }


def run_sharded(
    factory: ShardFactory,
    shards: int,
    until: float,
    *,
    workers: Optional[int] = 0,
    base_seed: int = 0,
    drain: bool = True,
    on_violation: str = "raise",
) -> ShardedResult:
    """Run ``shards`` independent scenario groups, optionally in parallel.

    ``factory(shard_index, shard_seed)`` builds each shard's scenario;
    ``workers`` follows :func:`~repro.sweep.executor.run_sweep` (0/None/1
    serial in-process, >= 2 a multiprocessing pool).  The result carries
    the shards in shard order regardless of completion order.
    """
    if shards < 1:
        raise ValueError(f"shards must be at least 1: {shards}")
    sweep = Sweep(seeds=1, base_seed=base_seed).axis("shard", list(range(shards)))
    result = run_sweep(
        sweep,
        _shard_runner,
        workers=workers,
        context=(factory, until, drain),
        on_violation=on_violation,
        keep_results=True,
    )
    ordered: List[Tuple[int, ScenarioResult]] = []
    for cell, cell_result in zip(sweep.cells(), result.cells):
        run = cell_result.runs[0]
        assert run.result is not None  # keep_results=True above
        ordered.append((cell["shard"], ScenarioResult.from_dict(run.result)))
    ordered.sort(key=lambda pair: pair[0])
    shard_results = [res for _, res in ordered]
    return ShardedResult(shards=shard_results, merged=_merge(shard_results))
