"""The shape claims of the paper's evaluation (Section 5), at paper scale.

Each test regenerates one table, figure or ablation on the full-length
calibrated game trace (11 696 rounds, as the paper) and asserts the
qualitative facts the paper reports — who beats whom, what grows with
what, and the calibration bands every downstream experiment depends on.
``examples/reproduce_figures.py`` prints the same rows; the golden
fixtures under ``tests/fixtures/`` pin exact numbers at reduced scale.
"""

from __future__ import annotations

import pytest

import repro.analysis.experiments as exp
from repro import Scenario, workloads
from repro.workload.game import GameConfig, generate_game_trace

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def paper_trace():
    """The full-length calibrated game trace (11696 rounds, as the paper)."""
    return exp.default_trace()


@pytest.fixture(scope="module")
def figure_4_sweep(paper_trace):
    """The Figure 4 grid at buffer 15: both panels read from it."""
    return exp.figure_4_sweep(paper_trace, buffer_size=15)


def _figure_4_by_rate(sweep, metric):
    rows = exp._figure_4_rows(sweep, exp.DEFAULT_RATES, metric)
    return {rate: (rel, sem) for rate, rel, sem in rows}


def test_workload_stats_within_calibration_bands(paper_trace):
    """Section 5.2's in-text workload characterisation."""
    rows = exp.workload_stats(paper_trace)
    measured = {name: value for name, _, value in rows}
    assert 36.0 <= measured["messages/s"] <= 50.0          # paper ≈ 42
    assert 1.1 <= measured["modified items/round"] <= 1.6  # paper 1.39
    assert 38.0 <= measured["active items"] <= 47.0        # paper 42.33
    assert 36.0 <= measured["never obsolete (%)"] <= 48.0  # paper 41.88


def test_figure_3a_item_modification_frequency(paper_trace):
    rows = exp.figure_3a(paper_trace, top=50)
    assert len(rows) == 50
    by_rank = dict(rows)
    # Top item in ~22 % of rounds, fast decay, a tail of rarely- or
    # never-modified items.
    assert 14.0 <= by_rank[1] <= 30.0
    assert by_rank[1] > by_rank[5] > by_rank[30]
    assert by_rank[50] < 1.0


def test_figure_3b_obsolescence_distance(paper_trace):
    rows = exp.figure_3b(paper_trace, max_distance=20)
    pct = dict(rows)
    # Related pairs are close: "often within 10 messages of each other".
    within_10 = sum(p for d, p in rows if d <= 10)
    assert within_10 > 60.0
    assert pct.get(1, 0) + pct.get(2, 0) + pct.get(3, 0) > 30.0


def test_figure_4a_producer_idle(figure_4_sweep):
    """Paper anchors at buffer 15: reliable needs ≈73 msg/s to keep the
    producer disturbance under 5 %; semantic stretches that to ≈28 msg/s."""
    by_rate = _figure_4_by_rate(figure_4_sweep, "producer_idle_pct")
    # Semantic dominates reliable at every rate.
    for rate, (rel, sem) in by_rate.items():
        assert sem >= rel - 1e-9, f"semantic worse at {rate} msg/s"
    # Fast consumers disturb nobody; slow ones crush the reliable protocol
    # while the semantic one is still ~fully idle.
    assert by_rate[140][0] > 99.0 and by_rate[140][1] > 99.0
    assert by_rate[30][1] - by_rate[30][0] > 15.0
    assert by_rate[20][0] < 60.0


def test_figure_4b_buffer_occupancy(figure_4_sweep):
    """In the 73→28 msg/s band purging prevents throughput degradation
    without the buffers filling up."""
    by_rate = _figure_4_by_rate(figure_4_sweep, "mean_occupancy")
    # Occupancy rises as the consumer slows, for both protocols...
    assert by_rate[30][0] > by_rate[100][0]
    assert by_rate[30][1] > by_rate[100][1]
    # ...but the reliable queue saturates while the semantic one stays low.
    assert by_rate[30][0] > 10.0
    assert by_rate[30][1] < 8.0


def test_figure_5a_threshold_rate(paper_trace):
    """Paper anchors at buffer 15: reliable 73 msg/s, semantic 28 msg/s,
    mean input ≈ 42 msg/s."""
    rows = exp.figure_5a(paper_trace)
    mean_rate = paper_trace.message_rate
    by_buffer = {b: (rel, sem) for b, rel, sem in rows}
    # The reliable threshold never drops below the mean input rate.
    for b, (rel, sem) in by_buffer.items():
        assert rel >= mean_rate * 0.9, f"reliable threshold below mean at B={b}"
        assert sem <= rel
    # Semantic drops below the mean input rate with a reasonable buffer.
    assert by_buffer[16][1] < mean_rate
    assert by_buffer[28][1] < mean_rate * 0.7
    # Tiny buffers defeat purging: thresholds within 15 % of each other.
    rel4, sem4 = by_buffer[4]
    assert sem4 > rel4 * 0.85
    # Larger buffers help both protocols.
    assert by_buffer[28][0] <= by_buffer[4][0]
    assert by_buffer[28][1] <= by_buffer[4][1]


def test_figure_5b_perturbation_tolerance(paper_trace):
    """Paper anchor at buffer 24: reliable ≈342 ms, semantic ≈857 ms."""
    rows = exp.figure_5b(paper_trace)
    by_buffer = {b: (rel, sem) for b, rel, sem in rows}
    # Tolerance grows with buffer size for both protocols.
    assert by_buffer[28][0] > by_buffer[4][0]
    assert by_buffer[28][1] > by_buffer[4][1]
    # Semantic tolerates longer stalls at equal buffer space; the paper's
    # gap at B=24 is ≈2.5×, ours must be at least 1.5×.
    rel24, sem24 = by_buffer[24]
    assert sem24 > rel24 * 1.5
    # Sub-second absolute magnitudes, as in the paper.
    assert 100.0 < rel24 < 2000.0
    assert 300.0 < sem24 < 4000.0


def test_view_change_under_load():
    """Section 5.4: with a slow member, purging shrinks the backlog the
    VIEW notification queues behind, so the application sees it sooner."""
    trace = generate_game_trace(GameConfig(rounds=1800, seed=4))  # 60 s
    rows = exp.view_change_latency_table(trace, slow_rate=25.0, load_time=30.0)
    by_protocol = {name: rest for name, *rest in rows}
    rel_backlog, rel_purged, rel_latency = by_protocol["reliable"]
    sem_backlog, sem_purged, sem_latency = by_protocol["semantic"]
    assert rel_purged == 0 and sem_purged > 0
    assert sem_backlog < rel_backlog / 2
    assert sem_latency < rel_latency / 2


def test_ablation_k_window(paper_trace):
    """k = 2 × buffer: purging saturates near there, tiny k collapses it."""
    rows = exp.ablation_k(paper_trace, buffer_size=15, ks=(2, 5, 10, 15, 30, 60, 120))
    by_k = {k: purge for k, purge, _idle in rows}
    # Purge ratio is monotone in k (more expressible pairs).
    ks = sorted(by_k)
    for a, b in zip(ks, ks[1:]):
        assert by_k[b] >= by_k[a] - 0.005
    # Doubling k beyond 2B buys almost nothing.
    assert by_k[2] < by_k[30] * 0.8
    assert by_k[120] - by_k[30] < 0.05


def test_ablation_representation(paper_trace):
    """Section 4.2: k-enumeration gives up a sliver of purging power."""
    rows = exp.ablation_representation(paper_trace, buffer_size=15)
    by_name = {name: purge for name, purge, _idle in rows}
    assert set(by_name) == {"tagging", "enumeration", "k-enumeration"}
    for name, purge in by_name.items():
        assert purge > 0.25, f"{name} barely purges"
    assert by_name["k-enumeration"] > by_name["tagging"] * 0.9


def test_ablation_players():
    """Section 5.2: more players raise the message rate, lower the
    never-obsolete share and stretch the obsolescence distance."""
    rows = exp.ablation_players(players=(2, 5, 10, 16), rounds=6000)
    rates = [r[1] for r in rows]
    never = [r[2] for r in rows]
    dist = [r[3] for r in rows]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert never[-1] < never[0]
    assert dist[-1] > dist[0]


def _pred_sizes(stability_interval):
    """Max PRED payload per member after 20 s of game traffic."""
    trace = workloads.create("game", rounds=600, seed=12)  # 20 s
    sizes = {}
    live = (
        Scenario()
        .group(
            n=3,
            relation="item-tagging",
            consensus="chandra-toueg",
            stability_interval=stability_interval,
        )
        .workload(trace, sender=0)
        .drain_every(0.01)
        .listeners(on_pred=lambda pid, size: sizes.__setitem__(pid, size))
        .check(False)
        .build()
    )
    live.run(until=trace.duration, drain=False)
    live.stack[0].trigger_view_change()
    live.settle(max_time=20.0)
    return sizes, len(trace.messages)


def test_ablation_stability_tracking_shrinks_pred():
    """Figure 1 keeps the whole view in ``delivered``, so PRED grows with
    view lifetime; stability tracking ships only the unstable suffix."""
    plain, total = _pred_sizes(None)
    tracked, _ = _pred_sizes(0.1)
    max_plain = max(plain.values())
    assert max_plain > total * 0.8
    assert max(tracked.values()) < max_plain / 10
