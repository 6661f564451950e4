"""Tests for the fluent Scenario builder: validation, wiring, metrics."""

import pytest

from repro.core.obsolescence import ItemTagging, KEnumeration
from repro.registry import RegistryError
from repro.scenario import (
    KNOWN_METRICS,
    Scenario,
    ScenarioError,
    serialize_histories,
)
from repro.workload.patterns import periodic_updates


def tiny_scenario():
    return (
        Scenario()
        .group(n=3, relation="item-tagging", consensus="oracle", seed=7)
        .inject(0.0, "a", annotation=1)
        .inject(0.01, "b", annotation=2)
    )


class TestValidation:
    def test_fluent_returns_self(self):
        scenario = Scenario()
        assert scenario.group(n=2) is scenario
        assert scenario.collect("purges") is scenario
        assert scenario.check(False) is scenario

    def test_group_rejects_empty(self):
        with pytest.raises(ScenarioError):
            Scenario().group(n=0)
        # ... and any option StackConfig does not have, by name.
        with pytest.raises(
            ScenarioError,
            match="invalid group configuration: .*"
            "unexpected keyword argument 'engine'",
        ):
            Scenario().group(n=2, engine="v3").build()

    def test_zero_stability_interval_rejected(self):
        """A zero gossip period would reschedule its timer at the same
        instant forever; the build must refuse it instead of hanging."""
        with pytest.raises(ValueError, match="stability_interval"):
            Scenario().group(
                n=3, relation="item-tagging", consensus="oracle",
                stability_interval=0.0,
            ).run(until=1.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_stability_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="stability_interval"):
            Scenario().group(
                n=3, relation="item-tagging", consensus="oracle",
                stability_interval=interval,
            ).run(until=1.0)

    def test_unknown_relation_name_fails_fast(self):
        with pytest.raises(RegistryError, match="obsolescence relation"):
            Scenario().group(relation="telepathy")

    def test_unknown_consensus_fails_at_build(self):
        with pytest.raises(ValueError, match="unknown consensus"):
            Scenario().group(consensus="paxos").build()

    def test_unknown_latency_model_fails_at_build(self):
        with pytest.raises(ValueError, match="unknown latency model"):
            Scenario().latency("quantum").build()

    def test_unknown_metric_rejected(self):
        with pytest.raises(ScenarioError, match="unknown metric"):
            Scenario().collect("vibes")

    def test_known_metrics_accepted(self):
        Scenario().collect(*KNOWN_METRICS)

    def test_negative_injection_time_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario().inject(-1.0, "x")

    def test_nonpositive_consumer_rate_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario().consumers(rate=0)

    def test_perturb_requires_consumer(self):
        with pytest.raises(ScenarioError, match="requires a consumer"):
            Scenario().group(n=3).perturb(pid=1, at=1.0, duration=0.5).build()

    def test_perturb_with_consumer_ok(self):
        (
            Scenario()
            .group(n=3, consensus="oracle")
            .consumers(rate=100.0)
            .perturb(pid=1, at=1.0, duration=0.5)
            .build()
        )

    def test_crash_unknown_pid_rejected(self):
        with pytest.raises(ScenarioError, match="unknown process"):
            Scenario().group(n=3).crash(pid=7, at=1.0).build()

    def test_consumer_unknown_pid_rejected(self):
        with pytest.raises(ScenarioError, match="unknown process"):
            Scenario().group(n=2).consumers(rate=10, pids=[5]).build()

    def test_two_trace_workloads_rejected(self):
        trace = periodic_updates(items=2, messages=10, rate=100.0)
        with pytest.raises(ScenarioError, match="one trace workload"):
            Scenario().workload(trace).workload(trace)

    def test_unknown_listener_hook_rejected(self):
        with pytest.raises(ScenarioError, match="unknown listener hook"):
            Scenario().listeners(on_teleport=lambda: None)

    def test_run_twice_rejected(self):
        live = tiny_scenario().build()
        live.run(until=1.0)
        with pytest.raises(ScenarioError, match="already ran"):
            live.run(until=2.0)

    def test_workload_params_require_named_source(self):
        trace = periodic_updates(items=2, messages=10, rate=100.0)
        with pytest.raises(ScenarioError):
            Scenario().workload(trace, rounds=5)

    def test_callable_workload_rejects_trace_only_options(self):
        driver = lambda live: None
        with pytest.raises(ScenarioError, match="callable drivers"):
            Scenario().workload(driver, start=5.0)
        with pytest.raises(ScenarioError, match="callable drivers"):
            Scenario().workload(driver, sender=2)
        with pytest.raises(ScenarioError, match="callable drivers"):
            Scenario().workload(driver, representation="k-enumeration")

    def test_run_requires_until(self):
        with pytest.raises(TypeError):
            tiny_scenario().run()
        with pytest.raises(ScenarioError, match="until"):
            tiny_scenario().build().run(until=None)


class TestRelationResolution:
    def test_relation_instance_used_directly(self):
        relation = ItemTagging()
        live = Scenario().group(relation=relation, consensus="oracle").build()
        assert live.stack.relation is relation

    def test_named_relation_with_params_matches_instance(self):
        """A registry name plus relation_params and the equivalent
        instance build the same stack: byte-identical histories."""

        def histories(relation, **params):
            live = (
                Scenario()
                .group(n=3, relation=relation, consensus="oracle", seed=3,
                       **params)
                .workload(
                    periodic_updates(items=3, messages=40, rate=200.0),
                    representation="k-enumeration", k=5,
                )
                .consumers(rate=150.0)
                .crash(pid=2, at=0.1)
                .view_change(at=0.12, pid=0)
                .build()
            )
            live.run(until=1.0)
            assert live.stack.relation.k == 5
            return serialize_histories(live.stack.recorder)

        named = histories("k-enumeration", relation_params={"k": 5})
        assert named == histories(KEnumeration(k=5))
        assert any(e["kind"] == "view" for e in named["0"][1:])

    def test_relation_params(self):
        live = (
            Scenario()
            .group(
                relation="k-enumeration",
                relation_params={"k": 9},
                consensus="oracle",
            )
            .build()
        )
        assert isinstance(live.stack.relation, KEnumeration)
        assert live.stack.relation.k == 9

    def test_annotated_workload_supplies_relation(self):
        trace = periodic_updates(items=2, messages=10, rate=100.0)
        live = (
            Scenario()
            .group(consensus="oracle")
            .workload(trace, representation="k-enumeration", k=6)
            .build()
        )
        assert isinstance(live.stack.relation, KEnumeration)
        assert live.stack.relation.k == 6

    def test_explicit_relation_beats_annotation(self):
        trace = periodic_updates(items=2, messages=10, rate=100.0)
        live = (
            Scenario()
            .group(relation="empty", consensus="oracle")
            .workload(trace, representation="k-enumeration", k=6)
            .build()
        )
        assert type(live.stack.relation).__name__ == "EmptyRelation"


class TestRunAndMetrics:
    def test_result_shape(self):
        result = (
            tiny_scenario()
            .collect("throughput", "purges", "network", "view_changes")
            .run(until=1.0)
        )
        assert result.seed == 7 and result.n == 3
        assert result.duration == 1.0
        assert result.ok and result.violations == []
        assert set(result.metrics) == {
            "throughput",
            "purges",
            "network",
            "view_changes",
        }
        assert result.metrics["throughput"]["offered"] == 2
        assert result.metrics["network"]["sent"] > 0

    def test_config_reports_the_replicate_seed(self):
        result = (
            Scenario()
            .group(n=2, relation="item-tagging", consensus="oracle", seed=42)
            .run(until=0.5)
        )
        assert result.seed == 42
        assert result.config["seed"] == 42

    def test_two_builds_share_no_mutable_state(self):
        scenario = Scenario().group(
            n=2, relation="item-tagging", consensus="oracle", seed=1
        )
        a, b = scenario.build(), scenario.build()
        assert a.stack.relation is not b.stack.relation
        a.stack[0].multicast("only-in-a", 1)
        a.run(until=1.0, drain=False)
        assert a.stack.network.messages_sent > 0
        assert b.stack.network.messages_sent == 0
        assert b.stack[1].pending == 1  # just the initial VIEW notification

    def test_check_disabled_yields_none(self):
        result = tiny_scenario().check(False).run(until=1.0)
        assert result.violations is None
        assert result.ok  # no violations recorded

    def test_histories_recorded(self):
        result = tiny_scenario().run(until=1.0)
        assert set(result.histories) == {"0", "1", "2"}
        kinds = [e["kind"] for e in result.histories["1"]]
        assert kinds[0] == "view" and kinds.count("data") == 2

    def test_crash_and_view_change(self):
        result = (
            Scenario()
            .group(n=3, consensus="oracle", seed=2)
            .inject(0.0, "x", annotation=1)
            .crash(pid=2, at=0.2)
            .view_change(at=0.5, pid=0)
            .collect("view_changes")
            .run(until=3.0)
        )
        assert result.ok
        counts = result.metrics["view_changes"]["count"]
        assert counts["0"] == 1 and counts["1"] == 1 and counts["2"] == 0

    def test_queue_depth_metric(self):
        trace = periodic_updates(items=3, messages=200, rate=400.0)
        result = (
            Scenario()
            .group(n=2, consensus="oracle")
            .workload(trace)
            .consumers(rate=50.0, pids=[1])
            .collect("queue_depth")
            .sample_every(0.01)
            .run(until=2.0)
        )
        depth = result.metrics["queue_depth"]
        assert depth["max"]["1"] > 0
        assert depth["mean"]["1"] > 0

    def test_perturbation_causes_purges(self):
        trace = periodic_updates(items=2, messages=400, rate=200.0)
        result = (
            Scenario()
            .group(n=2, relation="item-tagging", consensus="oracle")
            .workload(trace)
            .consumers(rate=5_000.0, pids=[1])
            .perturb(pid=1, at=0.5, duration=1.0)
            .collect("purges")
            .run(until=4.0)
        )
        assert result.ok
        assert result.metrics["purges"]["per_process"]["1"] > 0

    def test_workload_start_shifts_replay_preserving_gaps(self):
        # 10 messages at 100 msg/s span [0, 0.09]; started at 5.0 the
        # replay must span [5.0, 5.09], not burst at t=5.0.
        trace = periodic_updates(items=2, messages=10, rate=100.0)
        live = (
            Scenario()
            .group(n=2, consensus="oracle")
            .workload(trace, start=5.0)
            .check(False)
            .build()
        )
        sent = []
        live.stack[0].listeners.on_multicast = (
            lambda pid, msg, _s=sent: _s.append(live.sim.now)
        )
        live.run(until=10.0, drain=False)
        assert len(sent) == 10
        assert sent[0] == pytest.approx(5.0)
        assert sent[-1] == pytest.approx(5.09)
        gaps = [b - a for a, b in zip(sent, sent[1:])]
        assert all(g == pytest.approx(0.01) for g in gaps)

    def test_histories_follow_check_toggle(self):
        assert tiny_scenario().check(False).run(until=1.0).histories == {}
        assert (
            tiny_scenario().check(False).histories(True).run(until=1.0).histories
            != {}
        )

    def test_named_workload(self):
        result = (
            Scenario()
            .group(n=2, consensus="oracle")
            .workload("periodic-updates", items=2, messages=20, rate=100.0)
            .collect("throughput")
            .run(until=2.0)
        )
        assert result.metrics["throughput"]["offered"] == 20

    def test_callable_workload_driver(self):
        def driver(live):
            live.sim.schedule_at(0.1, live.stack[0].multicast, "hi", 1)

        result = (
            Scenario()
            .group(n=2, consensus="oracle")
            .workload(driver)
            .collect("throughput")
            .run(until=1.0)
        )
        assert result.metrics["throughput"]["offered"] == 1

    def test_consumer_overrides_later_call_wins(self):
        live = (
            Scenario()
            .group(n=3, consensus="oracle")
            .consumers(rate=100.0)
            .consumers(rate=10.0, pids=[2])
            .build()
        )
        assert live.consumers[0].rate == 100.0
        assert live.consumers[2].rate == 10.0

    def test_lognormal_latency_scenario_satisfies_spec(self):
        trace = periodic_updates(items=4, messages=100, rate=200.0)
        result = (
            Scenario()
            .group(n=3, relation="item-tagging", consensus="oracle", seed=11)
            .latency("lognormal", mean=0.002, sigma=1.2)
            .workload(trace)
            .run(until=5.0)
        )
        assert result.ok
