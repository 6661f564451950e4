"""Kernel hot-path benchmark: the workloads behind ``BENCH_kernel.json``.

Each workload is a deterministic, self-contained callable timed with
``time.perf_counter``.  Running this module as a script re-measures every
workload and emits/updates ``BENCH_kernel.json`` at the repository root::

    PYTHONPATH=src python benchmarks/bench_kernel.py --emit

The JSON file records two snapshots:

* ``pre_pr``  — the last measurement taken on the *previous* kernel
  (kept as the speedup denominator; never overwritten by ``--emit``);
* ``current`` — the latest measurement of the present tree.

``benchmarks/test_bench_kernel_baseline.py`` re-runs the same workloads
under pytest and asserts the recorded speedup over ``pre_pr`` holds, so
future PRs cannot silently regress the hot path.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time
from typing import Callable, Dict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_kernel.json"

SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# Workloads.  Each returns a checksum-ish value so the work cannot be
# optimised away and mis-runs are caught.
# ----------------------------------------------------------------------


def bench_kernel_events() -> int:
    """200k self-rescheduling events through the bare simulator."""
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=1)
    counter = [0]

    def tick(chain: int) -> None:
        counter[0] += 1
        if counter[0] < 200_000:
            sim.schedule(0.0007 * (1 + chain % 3), tick, chain)

    for chain in range(8):
        sim.schedule(0.001, tick, chain)
    sim.run()
    return counter[0]


def bench_sweep_overhead() -> int:
    """1000 near-empty cells: grid + executor + aggregation cost."""
    from repro.sweep import Sweep

    result = Sweep(seeds=1).axis("x", list(range(1000))).run(_null_cell)
    assert result.ok
    return result.n_runs


def _null_cell(params, seed, context):
    return {"value": params["x"] * 2.0}


_trace_cache = None


def _bench_trace():
    """The golden-fixture trace, generated once per process — workload
    timings must measure the kernel, not trace generation."""
    global _trace_cache
    if _trace_cache is None:
        from repro.workload.game import GameConfig, generate_game_trace

        _trace_cache = generate_game_trace(GameConfig(rounds=1500, seed=2002))
    return _trace_cache


def bench_figure_4a() -> int:
    """The golden-fixture Figure 4(a) grid: throughput model end to end.

    Annotations are pre-warmed by the caller (see :func:`measure`) so this
    times the kernel + purge hot path, not the one-off trace encoding.
    """
    import repro.analysis.experiments as exp

    rows = exp.figure_4a(_bench_trace(), buffer_size=15, rates=(80, 40, 20))
    return len(rows)


def bench_slow_receiver_reliable() -> int:
    """One reliable (empty relation) slow-receiver run: purge scans that
    can never purge anything are pure overhead the index removes."""
    from repro.analysis.throughput import ThroughputConfig, run_slow_receiver

    result = run_slow_receiver(
        _bench_trace(),
        ThroughputConfig(buffer_size=15, consumer_rate=40.0, semantic=False),
    )
    return result.delivered


def bench_stack_multicast() -> int:
    """An 8-member GroupStack under broadcast traffic: network + SVS path."""
    from repro.core.obsolescence import ItemTagging
    from repro.gcs.stack import GroupStack, StackConfig

    stack = GroupStack(
        ItemTagging(), StackConfig(n=8, seed=3, consensus="oracle")
    )
    sim = stack.sim
    for i in range(1500):
        sim.schedule_at(
            0.001 * i, stack[i % 8].multicast, f"m{i}", i % 40
        )
    sim.run(until=3.0)
    stack.drain_all()
    return stack.network.messages_delivered


def bench_stress_128() -> int:
    """The 128-process / ~114k-message broadcast storm (see
    ``test_bench_stress.py``).  Not present in the pre-PR snapshot — it
    could not be run there at benchmark cadence."""
    import test_bench_stress

    stack = test_bench_stress._run_stress()
    return stack.network.messages_delivered


# ----------------------------------------------------------------------
# Stress-scale workloads.  Shapes shared by the benchmark and the CI
# gates (``test_bench_stress_scale.py``).
# ----------------------------------------------------------------------

STRESS_SCALES = {
    # Every member broadcasts twice: ~2M network messages through the
    # full SVS path, half of the first round semantically purged.
    "stress_1k": {"n": 1000, "senders": 1000, "rounds": 2},
    # 10k attached processes; 50 broadcasters give ~1M deliveries while
    # the fan-out per multicast (9 999) dwarfs stress_1k's.
    "stress_10k": {"n": 10_000, "senders": 50, "rounds": 2},
}


def run_stress_scale(
    n: int, senders: int, rounds: int, relation=None, latched: bool = False
):
    """One broadcast-storm run of the given shape.

    Senders ``0..senders-1`` multicast once per round; tags repeat per
    sender across rounds (``s % 17``) so backlogs are genuinely
    purgeable, and periodic drains model applications that keep up —
    the ``test_bench_stress.py`` scenario generalised to configurable
    scale.  ``relation`` defaults to the registry's item tagging; pass a
    relation *object* (e.g. a counting wrapper) to observe the protocol.
    ``latched`` touches a fault knob with its no-op value first, so every
    multicast takes the network's per-destination loop instead of the
    batched fan-out — the reference arm of the counter comparison.
    """
    from repro.gcs.context import RunContext
    from repro.gcs.stack import GroupStack, StackConfig

    config = StackConfig(n=n, seed=7, consensus="oracle", record_history=False)
    if relation is None:
        stack = RunContext.prepare("item-tagging", config).stack()
    else:
        stack = GroupStack(relation, config)
    if latched:
        stack.network.set_drop_filter(None)
    sim = stack.sim
    for r in range(rounds):
        for s in range(senders):
            sim.schedule_at(
                0.002 * r + 0.00001 * s, stack[s].multicast, f"m{r}:{s}", s % 17
            )

    def drain() -> None:
        for proc in stack:
            if not proc.crashed:
                proc.drain()

    for t in range(1, 6):
        sim.schedule_at(0.05 * t, drain)
    sim.run(until=1.0)
    drain()
    return stack


def bench_stress_1k() -> int:
    """1000 processes / ~2M messages, one kernel event per fan-out."""
    stack = run_stress_scale(**STRESS_SCALES["stress_1k"])
    return stack.network.messages_delivered


def bench_stress_10k() -> int:
    """10k processes / ~1M messages — the scale the batched fan-out
    exists for (the per-destination loop turns each multicast into 9 999
    heap events)."""
    stack = run_stress_scale(**STRESS_SCALES["stress_10k"])
    return stack.network.messages_delivered


WORKLOADS: Dict[str, Callable[[], int]] = {
    "kernel_events": bench_kernel_events,
    "sweep_overhead": bench_sweep_overhead,
    "figure_4a": bench_figure_4a,
    "slow_receiver_reliable": bench_slow_receiver_reliable,
    "stack_multicast": bench_stack_multicast,
    "stress_128": bench_stress_128,
    "stress_1k": bench_stress_1k,
    "stress_10k": bench_stress_10k,
}

#: Workloads measured once per ``measure`` call: 5–15 s apiece.
SINGLE_SHOT = {"stress_1k", "stress_10k"}


def _warm_annotations() -> None:
    """Pre-encode the shared bench trace so timings exclude the one-off
    annotation pass (cached per process in repro.analysis.throughput)."""
    from repro.analysis.throughput import annotated_messages

    trace = _bench_trace()
    annotated_messages(trace, "k-enumeration", 30)


def measure(repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` wall time per workload, in seconds."""
    _warm_annotations()
    timings: Dict[str, float] = {}
    for name, fn in WORKLOADS.items():
        best = float("inf")
        for _ in range(1 if name in SINGLE_SHOT else repeats):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
        timings[name] = round(best, 6)
    return timings


def emit(timings: Dict[str, float]) -> Dict:
    """Write ``timings`` as the ``current`` snapshot of BENCH_kernel.json,
    preserving the recorded ``pre_pr`` baseline."""
    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data.setdefault("schema", SCHEMA_VERSION)
    data.setdefault("pre_pr", {})
    data["current"] = {
        "timings": timings,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    pre = data["pre_pr"].get("timings") or {}
    data["speedup"] = {
        name: round(pre[name] / timings[name], 2)
        for name in timings
        if pre.get(name)
    }
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--emit", action="store_true", help="update BENCH_kernel.json"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    timings = measure(repeats=args.repeats)
    for name, seconds in timings.items():
        print(f"{name:>24}: {seconds * 1000:9.2f} ms")
    if args.emit:
        data = emit(timings)
        print(f"wrote {BENCH_FILE} (speedup vs pre_pr: {data['speedup']})")


if __name__ == "__main__":
    main()
