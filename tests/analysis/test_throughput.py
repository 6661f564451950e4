"""Unit tests for the slow-receiver throughput model.

Validated against closed-form expectations on the analytic traffic
patterns, then sanity-checked on the game trace.
"""

import gc

import pytest

from repro.analysis import throughput
from repro.analysis.throughput import (
    ThroughputConfig,
    annotated_messages,
    perturbation_tolerance,
    run_slow_receiver,
    threshold_rate,
)
from repro.workload import trace as trace_module
from repro.workload.patterns import (
    mixed_stream,
    periodic_updates,
    single_item_stream,
)


class TestFastConsumer:
    def test_no_blocking_when_consumer_outpaces_producer(self):
        trace = periodic_updates(items=5, messages=500, rate=50.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=10, consumer_rate=500.0, semantic=False),
        )
        assert result.blocked_fraction == 0.0
        assert result.producer_idle_pct == 100.0
        assert result.delivered == 500
        assert result.completed

    def test_occupancy_small_when_fast(self):
        trace = periodic_updates(items=5, messages=500, rate=50.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=10, consumer_rate=500.0, semantic=False),
        )
        assert result.mean_occupancy < 2.0


class TestSlowConsumerReliable:
    def test_blocking_fraction_matches_queueing_theory(self):
        """Deterministic arrivals at λ with service rate c < λ: the
        producer must stall a fraction ≈ 1 - c/λ of the time."""
        trace = periodic_updates(items=5, messages=2000, rate=100.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=10, consumer_rate=50.0, semantic=False),
        )
        assert result.blocked_fraction == pytest.approx(0.5, abs=0.05)

    def test_queue_saturates_at_capacity(self):
        trace = periodic_updates(items=5, messages=2000, rate=100.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=10, consumer_rate=50.0, semantic=False),
        )
        assert result.max_occupancy == 10
        assert result.mean_occupancy > 8.0

    def test_all_messages_eventually_delivered(self):
        trace = periodic_updates(items=5, messages=300, rate=100.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=5, consumer_rate=50.0, semantic=False),
        )
        assert result.delivered == 300


class TestSlowConsumerSemantic:
    def test_single_item_stream_never_blocks(self):
        """Every message obsoletes its predecessor: the buffer collapses
        to at most one data message regardless of consumer speed."""
        trace = single_item_stream(messages=2000, rate=100.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=4, consumer_rate=5.0, semantic=True),
        )
        assert result.blocked_fraction == 0.0
        assert result.purged > 1500

    def test_purging_rate_on_periodic_traffic(self):
        """Round-robin over m items with a buffer >= m: a slow consumer
        forces every superseded copy to purge; throughput never blocks as
        long as the working set fits."""
        trace = periodic_updates(items=5, messages=2000, rate=100.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=10, consumer_rate=20.0, semantic=True),
        )
        assert result.blocked_fraction < 0.01

    def test_working_set_larger_than_buffer_blocks(self):
        """If the distance between related messages exceeds what the buffer
        can hold, purging cannot help (the paper's small-buffer effect)."""
        trace = periodic_updates(items=50, messages=2000, rate=100.0)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(buffer_size=5, consumer_rate=20.0, semantic=True),
        )
        assert result.blocked_fraction > 0.5

    def test_semantic_never_slower_than_reliable(self, short_game_trace):
        for rate in (30, 60):
            rel = run_slow_receiver(
                short_game_trace,
                ThroughputConfig(buffer_size=15, consumer_rate=rate, semantic=False),
            )
            sem = run_slow_receiver(
                short_game_trace,
                ThroughputConfig(buffer_size=15, consumer_rate=rate, semantic=True),
            )
            assert sem.producer_idle_pct >= rel.producer_idle_pct - 1e-9
            assert sem.mean_occupancy <= rel.mean_occupancy + 1e-9


class TestThresholdSearch:
    def test_threshold_monotone_in_buffer_size(self, short_game_trace):
        t_small = threshold_rate(short_game_trace, 6, semantic=False)
        t_large = threshold_rate(short_game_trace, 24, semantic=False)
        assert t_large <= t_small

    def test_semantic_threshold_below_reliable(self, short_game_trace):
        rel = threshold_rate(short_game_trace, 15, semantic=False)
        sem = threshold_rate(short_game_trace, 15, semantic=True)
        assert sem < rel

    def test_semantic_threshold_below_mean_rate_with_big_buffer(
        self, short_game_trace
    ):
        """The paper's headline: with purging, a receiver slower than the
        mean input rate can be accommodated — impossible for reliable."""
        mean_rate = short_game_trace.message_rate
        rel = threshold_rate(short_game_trace, 24, semantic=False)
        sem = threshold_rate(short_game_trace, 24, semantic=True)
        assert rel >= mean_rate * 0.95
        assert sem < mean_rate


def stopping_probe_decisions(trace, buffer_size, semantic, rates, d=0.05):
    """Each rate's "disturbed?" by the full run, asserting that the probe
    ``threshold_rate`` runs — stopped once its blocked time decides —
    answers the same."""
    decisions = []
    for rate in rates:
        config = ThroughputConfig(
            buffer_size=buffer_size, consumer_rate=float(rate),
            semantic=semantic,
        )
        full = run_slow_receiver(trace, config)
        probe = throughput._simulate(trace, config, disturbance=d)[0]
        disturbed = full.blocked_fraction > d
        if probe.completed:
            assert probe == full, rate
        else:
            assert disturbed and probe.blocked_fraction > d, rate
        decisions.append(disturbed)
    return decisions


@pytest.mark.parametrize("semantic", [True, False])
def test_stopping_probe_decides_like_the_full_run(tiny_game_trace, semantic):
    decisions = stopping_probe_decisions(
        tiny_game_trace, 6, semantic, range(5, 121, 5)
    )
    assert decisions[0] and not decisions[-1]


@pytest.mark.slow
@pytest.mark.parametrize("semantic", [True, False])
@pytest.mark.parametrize("buffer_size", [4, 28])
def test_threshold_bisection_agrees_with_exhaustive_scan(
    short_game_trace, buffer_size, semantic
):
    """``threshold_rate`` bisects on "blocking is monotone in the rate";
    here every integer rate is run, on the golden 1500-round trace, and
    each is decided by the stopping probe exactly as by the full run."""
    lo, hi = 1, 200
    disturbed = stopping_probe_decisions(
        short_game_trace, buffer_size, semantic, range(lo, hi + 1)
    )
    scan = lo + disturbed.index(False)
    assert threshold_rate(short_game_trace, buffer_size, semantic) == scan
    # Monotone: disturbed at every rate below the threshold, at none above.
    assert all(disturbed[: scan - lo]) and not any(disturbed[scan - lo :])


class TestPerturbationTolerance:
    def test_reliable_tolerance_scales_with_buffer(self, short_game_trace):
        small = perturbation_tolerance(short_game_trace, 8, semantic=False, probes=4)
        large = perturbation_tolerance(short_game_trace, 24, semantic=False, probes=4)
        assert large > small

    def test_semantic_tolerates_longer_than_reliable(self, short_game_trace):
        rel = perturbation_tolerance(short_game_trace, 20, semantic=False, probes=4)
        sem = perturbation_tolerance(short_game_trace, 20, semantic=True, probes=4)
        assert sem > rel

    def test_reliable_tolerance_near_buffer_over_rate(self):
        """On perfectly periodic traffic the tolerance is exactly the time
        to fill the buffer: B / λ."""
        trace = periodic_updates(items=100, messages=6000, rate=100.0)
        tol = perturbation_tolerance(
            trace, 20, semantic=False, probes=3, warmup=5.0
        )
        assert tol == pytest.approx(20 / 100.0, rel=0.25)

    def test_invalid_probe_parameters(self, short_game_trace):
        with pytest.raises(ValueError):
            perturbation_tolerance(short_game_trace, 10, semantic=True, probes=0)


def tolerance_by_stalled_runs(
    trace, buffer_size, semantic, probes=8, fast_rate=5_000.0, warmup=20.0
):
    """Figure 5(b) the long way: one stalled run per probe."""
    horizon = trace.duration
    tolerances = []
    for i in range(probes):
        stall_at = warmup + (horizon - 2 * warmup) * i / max(1, probes - 1)
        result = run_slow_receiver(
            trace,
            ThroughputConfig(
                buffer_size=buffer_size, consumer_rate=fast_rate,
                semantic=semantic, stall_at=stall_at, stop_on_first_block=True,
            ),
        )
        tolerances.append(
            (horizon if result.first_block_time is None else result.first_block_time)
            - stall_at
        )
    return sum(tolerances) / len(tolerances)


class TestProbesShareOnePass:
    """``perturbation_tolerance`` answers every probe from one un-stalled
    pass; the answer must be the one a stalled run per probe gives."""

    @pytest.mark.parametrize("semantic", [True, False])
    @pytest.mark.parametrize("buffer_size", [8, 24])
    def test_game_trace(self, short_game_trace, buffer_size, semantic):
        assert perturbation_tolerance(
            short_game_trace, buffer_size, semantic, probes=5, warmup=5.0
        ) == tolerance_by_stalled_runs(
            short_game_trace, buffer_size, semantic, probes=5, warmup=5.0
        )

    @pytest.mark.parametrize("semantic", [True, False])
    def test_producer_already_blocked_at_the_stall(self, semantic):
        """A 5 msg/s consumer against 50 msg/s of never-obsolete traffic:
        every probe finds the producer blocked, nothing is ever retried,
        so there is no *first* block after the stall."""
        trace = mixed_stream(messages=1000, rate=50.0, reliable_share=1.0)
        kwargs = dict(probes=2, fast_rate=5.0, warmup=4.1)  # off the 0.2 s lattice
        expected = tolerance_by_stalled_runs(trace, 4, semantic, **kwargs)
        assert perturbation_tolerance(trace, 4, semantic, **kwargs) == expected
        stalls = (4.1, trace.duration - 4.1)
        assert expected == sum(trace.duration - s for s in stalls) / 2

    @pytest.mark.parametrize("semantic", [True, False])
    def test_producer_never_blocks_again(self, semantic):
        """Fewer messages remain after the stall than the buffer holds."""
        trace = periodic_updates(items=100, messages=100, rate=10.0)
        kwargs = dict(probes=1, warmup=8.0)
        expected = tolerance_by_stalled_runs(trace, 30, semantic, **kwargs)
        assert perturbation_tolerance(trace, 30, semantic, **kwargs) == expected
        assert expected == trace.duration - 8.0

    def test_probes_that_step_backwards(self, short_game_trace):
        """``warmup < horizon < 2 × warmup`` spreads the probes in
        descending order; the shared pass visits them ascending."""
        kwargs = dict(probes=4, warmup=30.0)
        assert perturbation_tolerance(
            short_game_trace, 12, True, **kwargs
        ) == tolerance_by_stalled_runs(short_game_trace, 12, True, **kwargs)


class TestAnnotationMemo:
    def test_repeated_call_returns_the_same_objects(self, tiny_game_trace):
        first = annotated_messages(tiny_game_trace, "k-enumeration", 16)
        again = annotated_messages(tiny_game_trace, "k-enumeration", 16)
        assert again[0] is first[0] and again[1] is first[1]
        other = annotated_messages(tiny_game_trace, "k-enumeration", 8)
        assert other[0] is not first[0]

    def test_entry_dies_with_its_trace(self):
        gc.collect()
        before = set(trace_module._annotation_cache)
        trace = periodic_updates(items=3, messages=20, rate=10.0)
        annotated_messages(trace, "tagging", 4)
        annotated_messages(trace, "k-enumeration", 4)
        assert set(trace_module._annotation_cache) - before == {id(trace)}
        del trace
        gc.collect()
        assert set(trace_module._annotation_cache) == before

    def test_short_lived_traces_leave_nothing_behind(self):
        gc.collect()
        before = len(trace_module._annotation_cache)
        for i in range(300):
            trace = single_item_stream(messages=5, rate=10.0 + i)
            run_slow_receiver(trace, ThroughputConfig(buffer_size=2))
        del trace
        gc.collect()
        assert len(trace_module._annotation_cache) == before

    def test_builder_and_model_share_one_annotation(self, monkeypatch):
        from repro.scenario import Scenario

        calls = []
        annotate = trace_module.to_data_messages

        def counted(trace, **kwargs):
            calls.append(kwargs)
            return annotate(trace, **kwargs)

        monkeypatch.setattr(trace_module, "to_data_messages", counted)
        trace = periodic_updates(items=3, messages=20, rate=10.0)
        for _ in range(2):
            Scenario().group(n=2).workload(
                trace, representation="k-enumeration", k=30
            ).build()
        run_slow_receiver(trace, ThroughputConfig(buffer_size=15))  # k = 30
        assert calls == [{"representation": "k-enumeration", "k": 30}]

    def test_recycled_id_does_not_alias(self):
        """An entry whose trace is gone must never be served to the trace
        that now lives at the same address."""
        trace = periodic_updates(items=3, messages=20, rate=10.0)
        other = single_item_stream(messages=7, rate=10.0)
        annotated_messages(other, "tagging", 4)
        # Plant ``other``'s entry under ``trace``'s id, as a recycled id
        # would find it had the entry outlived its trace.
        trace_module._annotation_cache[id(trace)] = (
            trace_module._annotation_cache[id(other)]
        )
        messages, _ = annotated_messages(trace, "tagging", 4)
        assert len(messages) == 20


class TestConfigValidation:
    def test_negative_stall(self):
        with pytest.raises(ValueError):
            ThroughputConfig(stall_at=-1.0)


    def test_bad_buffer(self):
        with pytest.raises(ValueError):
            ThroughputConfig(buffer_size=0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ThroughputConfig(consumer_rate=0.0)

    def test_effective_k_default(self):
        assert ThroughputConfig(buffer_size=12).effective_k() == 24
        assert ThroughputConfig(buffer_size=12, k=7).effective_k() == 7

    def test_purge_ratio_property(self, short_game_trace):
        result = run_slow_receiver(
            short_game_trace,
            ThroughputConfig(buffer_size=15, consumer_rate=30, semantic=True),
        )
        assert 0.0 < result.purge_ratio < 1.0
