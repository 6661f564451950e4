"""The five workloads.

Each one sets itself up (imports, generated inputs, warm-up), runs timed
iterations that return the program's outputs, and verifies those outputs
*after* the clock has stopped.  ``--seed`` reaches the program only as
generated inputs: the trace seed, the stack seed, the grid's base seed, the
multicast schedule.  Why each workload exists is recorded next to its name
in ``BENCHMARK.json``; sizes are what fits the driver's time budget on a
2-core box (see ``bench/README.md``).
"""

import contextlib
import hashlib
import io
import json
import math
import random
import runpy
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterator, List, NamedTuple, Tuple

from bench import FIGURES_CLI, GOLDEN_FIGURE_4A, ROOT, child_env, work_dir
from bench.stats import percentile


class Verdict(NamedTuple):
    """What verifying one iteration's outputs found."""

    digest: str
    attempted: int
    failed: int
    violations: int
    layer: Dict[str, float] = {}
    """Per-layer numbers that only the outputs can give."""


@contextlib.contextmanager
def timed(spans: Dict[str, float], name: str) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        spans[name] = spans.get(name, 0.0) + time.perf_counter() - start


def digest_of(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def runs_with_violations(sweep: Any) -> int:
    return sum(bool(run.violations) for cell in sweep.cells for run in cell.runs)


def null_cell(params: Any, seed: int, context: Any = None) -> Dict[str, float]:
    """The cheapest sweep cell: what is left is executor overhead."""
    return {}


class Workload:
    name = ""
    #: Processes the workload keeps busy; refused above the CPU count.
    workers = 1
    min_iterations = {"full": 3, "smoke": 2}
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self.size = self.SIZES[scale]
        self.spans: Dict[str, float] = {}
        self.messages = 0
        """Messages in the generated input (``workload.messages``)."""

    def setup(self) -> None:
        """Import, generate inputs, warm up; everything ``setup_s`` covers."""
        raise NotImplementedError

    def reference(self) -> Tuple[int, int]:
        """Untimed once-per-run work; returns its (attempted, failed)."""
        return 0, 0

    def iteration(self) -> Any:
        raise NotImplementedError

    def traced_iteration(self) -> Tuple[Any, Dict[str, float]]:
        """The iteration in a form the tracer can see into: its outputs,
        and whatever per-layer spans it timed on the way."""
        return self.iteration(), {}

    def verify(self, outputs: Any) -> Verdict:
        raise NotImplementedError

    def latencies_ms(self, outputs: Any, wall_s: float) -> List[float]:
        """Request-to-result latencies of one iteration.  A closed loop with
        one client delivers one result per iteration."""
        return [wall_s * 1000.0]

    def extras(self, outputs: Any, wall_s: float) -> Dict[str, float]:
        """Traced-pass numbers from direct public calls, unprofiled;
        ``wall_s`` is the median untraced iteration."""
        return {}


# ----------------------------------------------------------------------
# figures_fast
# ----------------------------------------------------------------------


class FiguresFast(Workload):
    name = "figures_fast"
    min_iterations = {"full": 3, "smoke": 1}
    SIZES = {"full": {}, "smoke": {}}  # the CLI has one --fast size
    TABLES = 12

    def setup(self) -> None:
        # What the CLI pays before its first figure, every time it runs.
        with timed(self.spans, "import_s"):
            import repro.analysis.experiments  # noqa: F401
            from repro.workload import portable_workload
        with timed(self.spans, "workload.generate_s"):
            trace = portable_workload("game", rounds=2000)
        self.messages = len(trace.messages)

    def iteration(self) -> Tuple[int, str]:
        done = subprocess.run(
            [sys.executable, str(FIGURES_CLI), "--fast"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        return done.returncode, done.stdout

    def traced_iteration(self) -> Tuple[Tuple[int, str], Dict[str, float]]:
        argv, out = sys.argv, io.StringIO()
        sys.argv = [str(FIGURES_CLI), "--fast"]
        try:
            with contextlib.redirect_stdout(out):
                runpy.run_path(str(FIGURES_CLI), run_name="__main__")
        finally:
            sys.argv = argv
        return (0, out.getvalue()), {}

    def verify(self, outputs: Tuple[int, str]) -> Verdict:
        returncode, stdout = outputs
        lines = [
            line for line in stdout.splitlines()
            if not line.startswith("total wall-clock")
        ]
        tables = sum(line.startswith("== ") for line in lines)
        failed = self.TABLES if returncode else max(0, self.TABLES - tables)
        return Verdict(digest_of(lines), self.TABLES, failed, 0)


# ----------------------------------------------------------------------
# slow_receiver
# ----------------------------------------------------------------------


class SlowReceiver(Workload):
    name = "slow_receiver"
    SIZES = {
        "full": dict(rounds=11696, figure_4={}, buffers_5a=(4, 28),
                     buffers_5b=(12, 24), probes=8),
        "smoke": dict(rounds=1500, figure_4={"rates": (60, 28)},
                      buffers_5a=(8,), buffers_5b=(12,), probes=2),
    }

    def setup(self) -> None:
        with timed(self.spans, "import_s"):
            import repro.analysis.experiments as exp
            from repro.analysis.throughput import (
                ThroughputConfig,
                annotated_messages,
            )
            from repro.workload import portable_workload
        size = self.size
        with timed(self.spans, "workload.generate_s"):
            self.trace = portable_workload(
                "game", rounds=size["rounds"], seed=self.seed
            )
        self.messages = len(self.trace.messages)
        # Annotation pre-encoding: one pass per buffer size in use, so the
        # first timed iteration does not pay for the memo the others hit.
        default = ThroughputConfig().buffer_size
        for buffer_size in {default, *size["buffers_5a"], *size["buffers_5b"]}:
            config = ThroughputConfig(buffer_size=buffer_size)
            annotated_messages(
                self.trace, config.representation, config.effective_k()
            )
        exp.figure_4_sweep(self.trace, rates=(60,))

    def reference(self) -> Tuple[int, int]:
        """The committed Figure 4(a) fixture, recomputed on its own trace."""
        import repro.analysis.experiments as exp
        from repro.workload import portable_workload

        with open(GOLDEN_FIGURE_4A, "r", encoding="utf-8") as fh:
            golden = json.load(fh)
        trace = portable_workload(
            golden["trace"]["generator"],
            rounds=golden["trace"]["rounds"],
            seed=golden["trace"]["seed"],
        )
        rows = exp.figure_4a(
            trace, buffer_size=golden["buffer_size"], rates=golden["rates"]
        )
        measured = [list(row) for row in rows]
        wanted = golden["rows"]
        failed = abs(len(measured) - len(wanted)) + sum(
            got != want for got, want in zip(measured, wanted)
        )
        return len(wanted), failed

    def iteration(self) -> Tuple[Any, list, list]:
        import repro.analysis.experiments as exp

        size = self.size
        sweep = exp.figure_4_sweep(self.trace, **size["figure_4"])
        rows_5a = exp.figure_5a(self.trace, buffers=size["buffers_5a"])
        rows_5b = exp.figure_5b(
            self.trace, buffers=size["buffers_5b"], probes=size["probes"]
        )
        return sweep, rows_5a, rows_5b

    def verify(self, outputs: Tuple[Any, list, list]) -> Verdict:
        sweep, rows_5a, rows_5b = outputs
        rows = [list(row) for row in (*rows_5a, *rows_5b)]
        bad_rows = sum(
            not all(math.isfinite(value) for value in row) for row in rows
        )
        return Verdict(
            digest_of([sweep.to_dict(), rows]),
            sweep.n_runs + len(rows),
            runs_with_violations(sweep) + bad_rows,
            len(sweep.violations),
        )

    def extras(self, outputs: Any, wall_s: float) -> Dict[str, float]:
        from repro.analysis.throughput import (
            ThroughputConfig,
            run_slow_receiver,
        )

        out: Dict[str, float] = {}
        for label, semantic in (("semantic", True), ("reliable", False)):
            config = ThroughputConfig(
                buffer_size=15, consumer_rate=30.0, semantic=semantic
            )
            with timed(out, f"analysis.throughput.{label}_run_s"):
                run_slow_receiver(self.trace, config)
        return out


# ----------------------------------------------------------------------
# replicated_game
# ----------------------------------------------------------------------


class ReplicatedGame(Workload):
    name = "replicated_game"
    SIZES = {
        "full": dict(n=8, rounds=6000, until=110.0, perturb=(2, 20.0, 2.0),
                     crash=(7, 40.0), view_change=40.5),
        "smoke": dict(n=4, rounds=300, until=10.0, perturb=(2, 2.0, 0.5),
                      crash=(3, 4.0), view_change=4.5),
    }
    RELATIONS = ("item-tagging", "empty")

    def setup(self) -> None:
        with timed(self.spans, "import_s"):
            import repro  # noqa: F401
            from repro.workload import portable_workload
        with timed(self.spans, "workload.generate_s"):
            self.trace = portable_workload(
                "game", rounds=self.size["rounds"], seed=self.seed
            )
        self.messages = len(self.trace.messages)
        self.scenario(self.RELATIONS[0]).run(until=2.0)

    def scenario(self, relation: str) -> Any:
        from repro import Scenario
        from repro.core.spec import DEFAULT_CHECKS

        size = self.size
        pid, at, duration = size["perturb"]
        crash_pid, crash_at = size["crash"]
        return (
            Scenario()
            .group(n=size["n"], relation=relation, consensus="chandra-toueg",
                   fd="heartbeat", seed=self.seed)
            .latency("lognormal", mean=0.001)
            .workload(self.trace)
            # ~70 % busy against the ~43 msg/s trace; pid 1 cannot keep up.
            .consumers(rate=60)
            .consumers(rate=25, pids=[1])
            .perturb(pid=pid, at=at, duration=duration)
            .crash(pid=crash_pid, at=crash_at)
            .view_change(at=size["view_change"])
            .collect("throughput", "purges", "queue_depth", "view_changes",
                     "network")
            .check(checks=DEFAULT_CHECKS)
        )

    def iteration(self) -> List[Tuple[Any, Any]]:
        runs = []
        for relation in self.RELATIONS:
            live = self.scenario(relation).build()
            runs.append((live, live.run(until=self.size["until"])))
        return runs

    def verify(self, outputs: List[Tuple[Any, Any]]) -> Verdict:
        from repro.core.spec import DEFAULT_CHECKS

        results = [result for _live, result in outputs]
        checks = len(DEFAULT_CHECKS)
        violations = sum(len(result.violations or ()) for result in results)
        return Verdict(
            digest_of([result.to_dict() for result in results]),
            checks * len(results),
            sum(min(checks, len(r.violations or ())) for r in results),
            violations,
        )

    def extras(
        self, outputs: List[Tuple[Any, Any]], wall_s: float
    ) -> Dict[str, float]:
        from repro import check_all

        live, _result = outputs[0]
        out: Dict[str, float] = {}
        with timed(out, "core.spec.check_s"):
            check_all(live.stack.recorder, live.stack.relation)
        return out


# ----------------------------------------------------------------------
# sweep_pool2
# ----------------------------------------------------------------------


class SweepPool2(Workload):
    name = "sweep_pool2"
    workers = 2
    SIZES = {
        "full": dict(seeds=3, until=40.0, rounds=1500, n=[3, 5, 8]),
        "smoke": dict(seeds=1, until=6.0, rounds=200, n=[3]),
    }

    def grid(self, **override: Any) -> Any:
        from repro import ScenarioSweep

        size = {**self.size, **override}
        base = {
            "until": size["until"],
            "workload": "game",
            "workload_params": {"rounds": size["rounds"], "seed": self.seed},
            "consensus": "oracle",
            "metrics": ["throughput", "purges", "queue_depth"],
        }
        return (
            ScenarioSweep(base=base, seeds=size["seeds"], base_seed=self.seed)
            .axis("n", size["n"])
            .axis("latency_model", ["constant", "lognormal"])
            .axis("consumer_rate", [40, 300])
        )

    def setup(self) -> None:
        with timed(self.spans, "import_s"):
            import repro  # noqa: F401
            from repro.workload import portable_workload
        with timed(self.spans, "workload.generate_s"):
            trace = portable_workload(
                "game", rounds=self.size["rounds"], seed=self.seed
            )
        self.messages = len(trace.messages)
        self.grid(seeds=1, n=[3], until=2.0).run(
            workers=self.workers, on_violation="collect"
        )

    def reference(self) -> Tuple[int, int]:
        """The serial run every pooled iteration must match byte for byte."""
        from repro.sweep.cache import code_fingerprint

        # Memoised per process, so timed here, before anything uses a cache.
        with timed(self.spans, "sweep.cache.fingerprint_s"):
            code_fingerprint()
        with timed(self.spans, "sweep.executor.serial_s"):
            serial = self.grid().run(workers=0, on_violation="collect")
        self.reference_json = serial.to_json()
        return 0, 0

    def iteration(self) -> Any:
        return self.grid().run(workers=self.workers, on_violation="collect")

    def traced_iteration(self) -> Tuple[Any, Dict[str, float]]:
        """Pool workers are other processes, so the profiler and the
        counters get the grid run serially — against an empty cache, then
        against the cache that left, then rendered as a report, which puts
        ``sweep.cache`` and ``report`` in the picture too."""
        from repro.report import ReportBuilder
        from repro.sweep.cache import cache_stats

        spans: Dict[str, float] = {}
        with tempfile.TemporaryDirectory(dir=work_dir()) as cache:
            with timed(spans, "sweep.cache.cold_s"):
                cold = self.grid().run(
                    workers=0, cache=cache, on_violation="collect"
                )
            before = cache_stats(cache)["counters"]
            with timed(spans, "sweep.cache.warm_s"):
                warm = self.grid().run(
                    workers=0, cache=cache, on_violation="collect"
                )
            after = cache_stats(cache)["counters"]
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        spans["sweep.cache.hit_rate"] = hits / max(1, hits + misses)
        with timed(spans, "report.render_s"):
            report = ReportBuilder(self.name).add_sweep("grid", warm)
            rendered = report.to_markdown() + report.to_html()
        spans["report.bytes"] = len(rendered.encode("utf-8"))
        return cold, spans

    def verify(self, outputs: Any) -> Verdict:
        text = outputs.to_json()
        if text == self.reference_json:
            failed = runs_with_violations(outputs)
        else:
            failed = outputs.n_runs
        return Verdict(
            digest_of(text), outputs.n_runs, failed, len(outputs.violations)
        )

    def extras(self, outputs: Any, wall_s: float) -> Dict[str, float]:
        from repro import Sweep
        from repro.sweep.dispatch import load_dispatch_stats

        out: Dict[str, float] = {
            # Ideal: the worker count.
            "sweep.dispatch.pool_speedup":
                self.spans["sweep.executor.serial_s"] / wall_s,
        }
        cells = 1000
        with timed(out, "sweep.executor.null_cell_us"):
            Sweep().axis("cell", range(cells)).run(null_cell)
        out["sweep.executor.null_cell_us"] *= 1e6 / cells
        # A cache-backed pooled run leaves the dispatch record behind.
        with tempfile.TemporaryDirectory(dir=work_dir()) as cache:
            self.grid().run(
                workers=self.workers, cache=cache, on_violation="collect"
            )
            record = load_dispatch_stats(cache)["runs"][-1]
        for key in ("dispatched", "stolen", "duplicates", "reissued"):
            out[f"sweep.dispatch.{key}"] = record[key]
        return out


# ----------------------------------------------------------------------
# live_loopback
# ----------------------------------------------------------------------


class LiveLoopback(Workload):
    name = "live_loopback"
    SIZES = {
        "full": dict(rate=400, start=0.1, stop=4.0, until=5.0),
        "smoke": dict(rate=400, start=0.1, stop=0.4, until=0.8),
    }
    MEMBERS = 3
    TAGS = 16
    #: Lost messages that later became obsolete are legitimately never
    #: repaired, so the delivered share sits just below 1 (0.99 measured).
    #: A host stall of a few hundred ms (about one iteration in thirty on
    #: the 2-core box) sets off a retransmit storm that leaves it near 0.75:
    #: slow, and visible in the ledger, but every safety check still holds.
    #: Below half, the transport is broken, not slow.
    MIN_DELIVERED_SHARE = 0.5

    def setup(self) -> None:
        with timed(self.spans, "import_s"):
            import repro  # noqa: F401
        size = self.size
        with timed(self.spans, "workload.generate_s"):
            rng = random.Random(self.seed)
            count = int((size["stop"] - size["start"]) * size["rate"])
            #: (due time, sender, item tag), round-robin over the members.
            self.schedule = [
                (size["start"] + index / size["rate"], index % self.MEMBERS,
                 rng.randrange(self.TAGS))
                for index in range(count)
            ]
        self.messages = len(self.schedule)
        self.run_live(until=0.2)

    def run_live(self, until: float) -> Dict[str, Any]:
        from repro import Scenario
        from repro.core.spec import LOSSY_CHECKS

        latencies: List[float] = []
        late: List[float] = []
        schedule = self.schedule

        def drive(live: Any) -> None:
            clock = live.sim

            def multicast(index: int) -> None:
                due, sender, tag = schedule[index]
                late.append(clock.now - due)
                live.endpoints[sender].multicast(index, tag)

            def on_data(message: Any) -> None:
                # Open loop: timed from when the multicast was due.
                latencies.append(clock.now - schedule[message.payload][0])

            for index, (due, _sender, _tag) in enumerate(schedule):
                clock.schedule_at(due, multicast, index)
            for endpoint in live.endpoints.values():
                endpoint.on_data = on_data

        live = (
            Scenario()
            .group(n=self.MEMBERS, relation="item-tagging", seed=self.seed)
            .transport("loopback", latency=0.002, jitter=0.001, loss=0.02)
            .consumers(rate=5000)
            .check(checks=LOSSY_CHECKS)
            .workload(drive)
            .build()
        )
        result = live.run(until=until)
        return dict(live=live, result=result, latencies=latencies, late=late)

    def iteration(self) -> Dict[str, Any]:
        return self.run_live(until=self.size["until"])

    def latencies_ms(self, outputs: Dict[str, Any], wall_s: float) -> List[float]:
        return [seconds * 1000.0 for seconds in outputs["latencies"]]

    def verify(self, outputs: Dict[str, Any]) -> Verdict:
        from repro.core.spec import LOSSY_CHECKS

        result, live = outputs["result"], outputs["live"]
        expected = len(self.schedule) * self.MEMBERS
        share = len(outputs["latencies"]) / expected
        checks = len(LOSSY_CHECKS)
        violations = len(result.violations or ())
        failed = min(checks, violations)
        if share < self.MIN_DELIVERED_SHARE:
            failed += expected
        # A live run is not event-reproducible; what must repeat is the
        # offered schedule, the surviving view and a clean verdict.
        digest = digest_of({
            "schedule": self.schedule,
            "view": sorted(live.stack[0].cv.members),
            "violations": result.violations,
        })
        layer = {
            "transport.delivered_share": share,
            "live.generator_late_p99_ms": percentile(outputs["late"], 99) * 1e3,
        }
        return Verdict(digest, expected + checks, failed, violations, layer)


WORKLOADS = {
    cls.name: cls
    for cls in (FiguresFast, SlowReceiver, ReplicatedGame, SweepPool2,
                LiveLoopback)
}
