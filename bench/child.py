"""One workload, alone in a fresh interpreter.

``python -m bench.child --workload W ...`` is started by :mod:`bench.cli`,
never two at a time.  It sets the workload up, runs untraced timed
iterations for ``--seconds`` (never fewer than the workload's minimum),
verifies every iteration's outputs once its clock has stopped, optionally
adds the traced pass, and prints one JSON object as its last line.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List

from bench.stats import percentile
from bench.tracer import Tracer
from bench.workloads import WORKLOADS, Workload


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB
    (``ru_maxrss`` is in KiB on Linux)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def timed_iterations(workload: Workload, seconds: float) -> List[Dict[str, Any]]:
    minimum = workload.min_iterations[workload.scale]
    iterations: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while len(iterations) < minimum or time.perf_counter() - start < seconds:
        gc.collect()
        cpu_before = cpu_seconds()
        began = time.perf_counter()
        outputs = workload.iteration()
        wall_s = time.perf_counter() - began
        cpu_s = cpu_seconds() - cpu_before
        verdict = workload.verify(outputs)
        iterations.append({
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "latencies_ms": workload.latencies_ms(outputs, wall_s),
            "digest": verdict.digest,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
        })
        del outputs
    return iterations


def end_to_end(iterations: List[Dict[str, Any]], rss_mb: float) -> Dict[str, Any]:
    """Every end-to-end metric but ``setup_s`` (the parent owns that one):
    the median over the timed iterations, plus the per-iteration samples its
    spread is judged by.  ``n`` is how many latencies the percentiles saw."""
    samples = {
        "wall_s": [it["wall_s"] for it in iterations],
        "cpu_s": [it["cpu_s"] for it in iterations],
        "peak_rss_mb": [rss_mb],
        **{
            f"deliver_p{p}_ms": [
                percentile(it["latencies_ms"], p) for it in iterations
            ]
            for p in (50, 99)
        },
    }
    delivered = sum(len(it["latencies_ms"]) for it in iterations)
    return {
        name: {
            "value": statistics.median(values),
            "samples": values,
            "n": delivered if name.startswith("deliver_") else len(values),
        }
        for name, values in samples.items()
    }


def traced_pass(workload: Workload, untraced_wall_s: float) -> Dict[str, Any]:
    """Spans and counters from one unprofiled iteration, the layer fold from
    a second one under the profiler."""
    with Tracer() as tracer:
        began = time.perf_counter()
        outputs, spans = workload.traced_iteration()
        wall_s = time.perf_counter() - began
        layer = tracer.take_spans()
        layer.update(spans)
        layer.update(tracer.take_counters())
        verdict = workload.verify(outputs)
        layer.update(verdict.layer)
        layer["core.spec.violations"] = verdict.violations
        layer.update(workload.extras(outputs, untraced_wall_s))
        del outputs
        gc.collect()
        began = time.perf_counter()
        tracer.profile(workload.traced_iteration)
        profiled_s = time.perf_counter() - began
        layer.update(tracer.fold())
        missing = sorted(tracer.missing)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    layer.update(workload.spans)
    layer["workload.messages"] = workload.messages
    layer["sim.kernel.events_per_s"] = ratio(layer["sim.kernel.events"], wall_s)
    layer["core.buffers.purge_ratio"] = ratio(
        layer["core.buffers.purged"], layer["core.buffers.appended"]
    )
    layer["gcs.endpoint.poll_share"] = ratio(
        layer["gcs.endpoint.polls"], layer["gcs.endpoint.calls"]
    )
    layer["transport.runtime.retransmits_per_drop"] = ratio(
        layer["transport.runtime.data_retransmits"],
        layer["transport.network.frames_dropped"],
    )
    layer["trace.overhead_ratio"] = ratio(profiled_s, wall_s)
    layer["trace.missing"] = len(missing)
    return {"layer": layer, "missing": missing, "digest": verdict.digest}


def run(args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workload.setup()
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        return {"setup_s": setup_s}
    attempted, failed = workload.reference()
    iterations = timed_iterations(workload, args.seconds)
    rss_mb = peak_rss_mb()
    digests = sorted({it["digest"] for it in iterations})
    attempted += sum(it["attempted"] for it in iterations)
    failed += sum(it["failed"] for it in iterations)
    if len(digests) > 1:
        # Outputs that differ between iterations of one run void the run.
        failed = attempted
    result: Dict[str, Any] = {
        "workload": workload.name,
        "setup_s": setup_s,
        "iterations": len(iterations),
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
        "metrics": end_to_end(iterations, rss_mb),
    }
    if args.trace:
        try:
            wall_s = result["metrics"]["wall_s"]["value"]
            result["trace"] = traced_pass(workload, wall_s)
        except Exception:
            # Tracing never gates: the untraced numbers stand.
            result["trace_error"] = traceback.format_exc()
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() in the parent just before the spawn")
    print(json.dumps(run(parser.parse_args(argv))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
