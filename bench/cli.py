"""``python3 -m bench run | compare | list``.

``run`` is also the command ``BENCHMARK.json`` names for the driver:
``python3 -m bench run --workload W --seed N --seconds S --trace 0|1`` ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the end-to-end set (``--trace 0``) or the per-layer set
(``--trace 1``).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench import (
    BASELINE,
    DEFAULT_SEED,
    FIGURES_CLI,
    ROOT,
    SRC,
    child_env,
    load_contract,
)
from bench.compare import compare
from bench.stats import summary
from bench.workloads import WORKLOADS

#: Fresh children that only set up, besides the measuring child: ``setup_s``
#: is the median of all of them.
SETUP_SAMPLES = {"full": 5, "smoke": 1}


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "cpus": {"count": os.cpu_count(), "affinity": cpus()},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def run_child(
    name: str, args: argparse.Namespace, setup_only: bool
) -> Dict[str, Any]:
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", args.scale,
        "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: workload {name} died (exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Set up ``SETUP_SAMPLES`` times, measure once, one process at a time."""
    load_before = os.getloadavg()[0]
    setups = [
        run_child(name, args, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES[args.scale] - 1)
    ]
    result = run_child(name, args, setup_only=False)
    setups.append(result.pop("setup_s"))
    result["metrics"]["setup_s"] = {
        "value": statistics.median(setups), "samples": setups, "n": len(setups),
    }
    result["failed_share"] = result["failed"] / result["attempted"]
    result["correct"] = result["failed"] == 0 and len(result["digests"]) == 1
    result["loadavg"] = [load_before, os.getloadavg()[0]]
    return result


def print_workload(
    result: Dict[str, Any], args: argparse.Namespace, contract: Dict[str, Any]
) -> None:
    name = result["workload"]
    print(f"\n== {name}: {result['iterations']} timed iterations, seed {args.seed} ==")
    print(f"{'metric':<18}{'unit':<6}{'value':>12}{'n':>7}"
          f"{'min':>12}{'q1':>12}{'q3':>12}{'max':>12}")
    for metric in contract["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        stats = summary(entry["samples"])
        print(
            f"{metric['name']:<18}{metric['unit']:<6}{entry['value']:>12.4f}"
            f"{entry['n']:>7}{stats['min']:>12.4f}"
            f"{stats['q1']:>12.4f}{stats['q3']:>12.4f}{stats['max']:>12.4f}"
        )
    print(f"failed_share      ratio {result['failed_share']:>12.4f}   "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    digest = result["digests"][0] if len(result["digests"]) == 1 else None
    print(f"result_digest     {digest or 'DIFFERS BETWEEN ITERATIONS'}")
    recorded = recorded_digest(name, args)
    if digest and recorded and digest != recorded:
        print(f"  note: differs from the digest recorded in {BASELINE.name} "
              f"({recorded[:16]}…); legitimate after a re-golden")
    trace = result.get("trace")
    if trace is not None:
        print(f"-- traced pass (shares indicative, counts exact; "
              f"missing: {trace['missing'] or 'none'}) --")
        if trace["digest"] != digest:
            print("  note: the traced iteration's digest differs")
        for key in sorted(trace["layer"]):
            if trace["layer"][key]:
                print(f"{key:<52}{trace['layer'][key]:>16.6g}")
    if "trace_error" in result:
        print(f"traced pass failed (untraced numbers stand):\n"
              f"{result['trace_error']}", file=sys.stderr)


def recorded_digest(name: str, args: argparse.Namespace) -> Optional[str]:
    """The seed tree's digest, when this run used the recorded seed/scale."""
    try:
        with open(BASELINE, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except OSError:
        return None
    env = baseline["environment"]
    if (env["seed"], env["scale"]) != (args.seed, args.scale):
        return None
    digests = baseline["workloads"].get(name, {}).get("digests")
    return digests[0] if digests else None


def contract_line(
    result: Dict[str, Any], args: argparse.Namespace, contract: Dict[str, Any]
) -> str:
    """The driver's one JSON object for this workload."""
    if args.trace:
        layer = result.get("trace", {}).get("layer", {})
        metrics = {
            m["name"]: {"value": layer.get(m["name"], 0.0), "unit": m["unit"]}
            for m in contract["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": result["metrics"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in contract["end_to_end"]
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def cmd_run(args: argparse.Namespace) -> int:
    contract = load_contract()
    for needed in (SRC / "repro" / "__init__.py", FIGURES_CLI):
        if not needed.exists():
            print(f"bench: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.scale == "smoke" else contract["run_seconds"]
    names = args.workload or [w["name"] for w in contract["workloads"]]
    for name in names:
        if WORKLOADS[name].workers > cpus():
            print(f"bench: {name} needs {WORKLOADS[name].workers} CPUs, "
                  f"this machine offers {cpus()}", file=sys.stderr)
            return 2
    load = os.getloadavg()[0]
    if load > cpus() - 1:
        # Checked once, up front: later readings include our own workloads.
        print(f"bench: warning: 1-minute load average {load:.2f} is above "
              f"{cpus() - 1}; timings are suspect", file=sys.stderr)
    results = {}
    for name in names:
        result = run_workload(name, args)
        results[name] = result
        print_workload(result, args, contract)
        print(contract_line(result, args, contract), flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(args), "workloads": results},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(result["correct"] for result in results.values()) else 1


def cmd_list(args: argparse.Namespace) -> int:
    contract = load_contract()
    print("end-to-end metrics (bound: how far the median may worsen):")
    for m in contract["end_to_end"]:
        print(f"  {m['name']:<18}{m['unit']:<6}{m['better']:<8}"
              f"+{m['bound']:.0%}")
    print("  failed_share      ratio lower   +0 absolute "
          "(the driver reads it as failed/attempted)")
    print("workloads:")
    for w in contract["workloads"]:
        print(f"  {w['name']:<18}{w['why']}")
    print("per-layer metrics (traced pass, no bound):")
    for m in contract["per_layer"]:
        print(f"  {m['name']:<52}{m['unit']:<8}{m['better']}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    return compare(args.a, args.b, load_contract())


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                     help="repeatable; default: all, in BENCHMARK.json order")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float, default=None,
                     help="timed budget per workload "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1), help="add the traced pass")
    run.add_argument("--scale", choices=("full", "smoke"), default="full")
    run.add_argument("--out", metavar="FILE", help="write the full result")
    run.set_defaults(handler=cmd_run)

    cmp_ = commands.add_parser("compare", help="compare two --out files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(handler=cmd_compare)

    commands.add_parser("list", help="metrics and workloads").set_defaults(
        handler=cmd_list
    )
    args = parser.parse_args(argv)
    return args.handler(args)
