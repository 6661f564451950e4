"""Per-group sharding: determinism, merge semantics, worker-count identity.

The load-bearing property is the last one: a sharded run's serialized
output must be byte-identical whether the shards ran serially in-process
or on a multiprocessing pool — the same guarantee the sweep executor
gives for grids, inherited by construction.
"""

import pytest

from repro.scenario import Scenario, ShardedResult, run_sharded


def _shard_factory(shard, seed):
    """Module-level (picklable) factory: one small independent group."""
    return (
        Scenario()
        .group(n=3 + (shard % 2), relation="item-tagging", seed=seed,
               consensus="oracle")
        .workload("game", players=3, rounds=30)
        .drain_every(0.05)
        .collect("network", "purges")
    )


def _uniform_factory(shard, seed):
    return (
        Scenario()
        .group(n=4, relation="item-tagging", seed=seed, consensus="oracle")
        .workload("game", players=3, rounds=25)
        .drain_every(0.05)
        .collect("network", "purges")
    )


class TestRunSharded:
    def test_shape_and_merge(self):
        result = run_sharded(_shard_factory, shards=3, until=2.0)
        assert isinstance(result, ShardedResult)
        assert result.ok
        assert len(result.shards) == 3
        assert result.merged["shards"] == 3
        assert result.merged["processes"] == sum(s.n for s in result.shards)
        # Totals are key-wise sums of the flattened scalar metrics.
        assert result.merged["totals"]["network.sent"] == sum(
            s.metrics["network"]["sent"] for s in result.shards
        )
        assert result.merged["totals"]["purges.total"] == sum(
            s.metrics["purges"]["total"] for s in result.shards
        )

    def test_shard_seeds_are_stable_under_shard_count(self):
        """Adding shards never reseeds existing ones (sweep derivation)."""
        small = run_sharded(_uniform_factory, shards=2, until=2.0)
        large = run_sharded(_uniform_factory, shards=4, until=2.0)
        for a, b in zip(small.shards, large.shards):
            assert a.to_json() == b.to_json()

    def test_deterministic_across_runs(self):
        a = run_sharded(_shard_factory, shards=3, until=2.0)
        b = run_sharded(_shard_factory, shards=3, until=2.0)
        assert a.to_json() == b.to_json()

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            run_sharded(_shard_factory, shards=0, until=1.0)

    def test_rejects_non_scenario_factory(self):
        with pytest.raises(Exception) as excinfo:
            run_sharded(lambda shard, seed: object(), shards=1, until=1.0)
        assert "Scenario" in str(excinfo.value)


@pytest.mark.slow
class TestWorkerSeamIdentity:
    def test_pooled_equals_serial_byte_for_byte(self):
        serial = run_sharded(_shard_factory, shards=4, until=2.0, workers=0)
        pooled = run_sharded(_shard_factory, shards=4, until=2.0, workers=2)
        assert serial.to_json() == pooled.to_json()
