#!/usr/bin/env python
"""Parameter sweeps in one call: figures and invariant-checked grids.

Two demonstrations of the ``repro.sweep`` engine:

1. Figure 4(a) from the :class:`~repro.sweep.SweepResult` of one
   ``figure_4_sweep`` call — the grid both panels of the figure read,
   farmed out to worker processes;
2. a full-stack :class:`~repro.sweep.ScenarioSweep` over group size ×
   latency model with replicated seeds, every cell checked against the
   executable SVS specification as it runs, aggregated to mean ± CI and
   written to JSON.

Run:  python examples/sweep_grid.py [--smoke] [--workers N] [--out FILE]
                                    [--cache DIR]

``--cache DIR`` runs both sweeps through the content-addressed cell cache
(``docs/sweeps-cache.md``): re-running with the same arguments computes
zero cells and writes a byte-identical ``--out`` file — the property CI's
warm-cache lane asserts.

``--workers N`` runs both sweeps on N worker processes
(``docs/sweeps-dispatch.md``); CI's warm-cache lane ``cmp``s the pooled
cold and warm ``--out`` files against a serial run's.
"""

import argparse
import time

from repro import ScenarioSweep
from repro.analysis.experiments import figure_4_sweep
from repro.workload import portable_workload


def figure_sweep(trace, rates, workers, cache=None):
    result = figure_4_sweep(
        trace, buffer_size=15, rates=rates, workers=workers, cache=cache,
    )
    print(f"\n== Figure 4(a) via one Sweep call ({result.n_runs} cells) ==")
    print(f"{'msg/s':>8} {'reliable':>10} {'semantic':>10}")
    for rate in rates:
        rel = result.select(consumer_rate=rate, semantic=False)
        sem = result.select(consumer_rate=rate, semantic=True)
        print(
            f"{rate:>8} {rel.value('producer_idle_pct'):>10.2f} "
            f"{sem.value('producer_idle_pct'):>10.2f}"
        )


def scenario_sweep(rounds, seeds, workers, out, cache=None):
    sweep = (
        ScenarioSweep(
            base={
                "until": 10.0,
                "workload": "game",
                "workload_params": {"rounds": rounds},
                "consumer_rate": 300.0,
                "consensus": "oracle",
                "metrics": ["throughput", "purges"],
            },
            seeds=seeds,
        )
        .axis("n", [3, 5])
        .axis("latency_model", ["constant", "lognormal"])
    )
    result = sweep.run(workers=workers, cache=cache)
    assert result.ok, result.violations  # every cell was invariant-checked
    print(
        f"\n== Scenario grid: n × latency model, {seeds} seeds/cell "
        f"({result.n_runs} runs, all invariant-checked) =="
    )
    print(f"{'n':>4} {'latency':>10} {'delivered/s':>14} {'±CI95':>8}")
    for cell in result.cells:
        stats = cell.stats("throughput.rate.0")
        print(
            f"{cell.params['n']:>4} {cell.params['latency_model']:>10} "
            f"{stats.mean:>14.1f} {stats.ci95:>8.1f}"
        )
    result.write_json(out)
    print(f"\naggregated sweep written to {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small fast grid")
    parser.add_argument("--workers", type=int, default=0)
    parser.add_argument("--out", default="sweep_result.json")
    parser.add_argument("--cache", default=None, metavar="DIR")
    args = parser.parse_args()
    cache = args.cache

    if args.smoke:
        trace = portable_workload("game", rounds=1500)
        rates = [80, 40, 20]
        rounds, seeds = 200, 2
    else:
        trace = portable_workload("game")
        rates = [140, 100, 73, 40, 28, 20]
        rounds, seeds = 600, 3

    start = time.time()
    figure_sweep(trace, rates, args.workers, cache=cache)
    scenario_sweep(rounds, seeds, args.workers, args.out, cache=cache)
    print(f"total wall-clock: {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
