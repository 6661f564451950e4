"""Per-layer attribution, recorded from the benchmark's own files.

A :class:`Tracer` is installed around one traced iteration.  It

* wraps public entry points with perf-counter **spans** (inclusive time per
  name);
* remembers every instance of a few public classes so their public
  **counters** can be summed afterwards;
* runs the iteration a second time under :mod:`cProfile` and **folds** the
  profile by source module: the profiler is a span at every function
  boundary, so a layer's self time is its functions' own time, with
  built-in time charged to the calling module.

Layers are module names under ``repro``; everything is resolved by name
when the tracer is installed.  A module, attribute or counter that no
longer exists is skipped and listed in :attr:`Tracer.missing` — tracing
never gates a run.
"""

import cProfile
import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: The named layers: ``<layer>.self_s`` and ``<layer>.calls`` for each.
LAYERS = (
    "sim.kernel", "sim.network",
    "core.svs", "core.buffers", "core.obsolescence", "core.spec",
    "core.message",
    "consensus", "fd",
    "gcs.endpoint", "gcs.stack",
    "workload", "metrics", "faults",
    "analysis.throughput", "analysis.experiments",
    "scenario",
    "sweep.executor", "sweep.cache",
    "report",
    "transport.clock", "transport.runtime", "transport.network",
)

#: Small modules charged to the named layer they serve.
FOLDED = {
    "sim.process": "sim.network",
    "sim.failure": "sim.network",
    "core.batch": "core.message",
    "gcs.context": "gcs.stack",
    "gcs.stability": "gcs.stack",
    "analysis.viewchange": "analysis.experiments",
    "registry": "scenario",
    "sweep.grid": "sweep.executor",
    "sweep.result": "sweep.executor",
    "sweep.scenario": "sweep.executor",
    "sweep.cells": "sweep.executor",
    # Dispatch runs in the parent of a pooled run, which is never the
    # profiled one; it has counters and a speed-up instead of a self time.
    "sweep.dispatch": "sweep.executor",
    "sweep.worker": "sweep.executor",
    "transport.loopback": "transport.network",
    "transport.framing": "transport.network",
    "transport.interface": "transport.network",
    "transport.udp": "transport.network",
}

#: The figure functions ``examples/reproduce_figures.py`` calls; each gets
#: the span ``analysis.experiments.<name>_s``.
FIGURES = (
    "workload_stats", "figure_3a", "figure_3b", "figure_4a", "figure_4b",
    "figure_5a", "figure_5b", "view_change_latency_table", "churn_table",
    "ablation_k", "ablation_representation", "ablation_players",
)

#: span name -> (public module, dotted attribute).
SPANS = {
    "scenario.build_s": ("repro", "Scenario.build"),
    "scenario.run_s": ("repro", "LiveScenario.run"),
    **{
        f"analysis.experiments.{name}_s": ("repro.analysis.experiments", name)
        for name in FIGURES
    },
}

#: counter name -> (public module, class, dotted public attribute), summed
#: over every instance created while the tracer is installed.
COUNTERS = {
    "sim.kernel.events": ("repro.sim", "Simulator", "events_processed"),
    "sim.network.sent": ("repro.sim", "Network", "messages_sent"),
    "sim.network.delivered": ("repro.sim", "Network", "messages_delivered"),
    "core.buffers.appended": ("repro.core", "DeliveryQueue", "stats.appended"),
    "core.buffers.popped": ("repro.core", "DeliveryQueue", "stats.popped"),
    "core.buffers.purged": ("repro.core", "DeliveryQueue", "stats.purged"),
    "transport.runtime.beacons":
        ("repro.transport", "LiveRuntime", "stats.beacons_sent"),
    "transport.runtime.data_retransmits":
        ("repro.transport", "LiveRuntime", "stats.data_retransmits"),
    "transport.network.frames_sent":
        ("repro.transport", "Transport", "stats.sent"),
    "transport.network.frames_dropped":
        ("repro.transport", "Transport", "stats.dropped"),
}

#: counter name -> (layer, function name): calls of a public function, read
#: off the profile.
CALL_COUNTS = {
    "gcs.endpoint.polls": ("gcs.endpoint", "poll"),
    "analysis.throughput.runs": ("analysis.throughput", "run_slow_receiver"),
}


def _dotted(obj: Any, path: str) -> Any:
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Install with ``with Tracer() as tracer:``; everything it patched is
    restored on exit."""

    def __init__(self) -> None:
        self.spans: Dict[str, float] = defaultdict(float)
        self.missing: Set[str] = set()
        self._undo: List[Callable[[], None]] = []
        self._instances: Dict[Tuple[str, str], List[Any]] = {}
        self._prefixes: List[Tuple[str, str]] = []
        self._layer_cache: Dict[str, Optional[str]] = {}
        self._profile: Optional[cProfile.Profile] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            self._map_module(layer, layer)
        for module, layer in FOLDED.items():
            self._map_module(module, layer)
        # Longest prefix first: a package layer must not swallow a module
        # layer inside it.
        self._prefixes.sort(key=lambda item: -len(item[0]))
        for span, (module, path) in SPANS.items():
            self._wrap_span(span, module, path)
        for module, cls, _attr in COUNTERS.values():
            self._track(module, cls)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._undo:
            self._undo.pop()()
        self._instances.clear()

    def _import(self, module: str) -> Any:
        try:
            return importlib.import_module(module)
        except ImportError:
            self.missing.add(module)
            return None

    def _map_module(self, module: str, layer: str) -> None:
        mod = self._import(f"repro.{module}")
        path = getattr(mod, "__file__", None)
        if path is None:
            return
        if os.path.basename(path) == "__init__.py":
            path = os.path.dirname(path) + os.sep
        self._prefixes.append((path, layer))

    def _resolve(self, module: str, path: str) -> Tuple[Any, str, Any]:
        """``(owner, attribute name, current value)`` or ``(None, ..)``."""
        mod = self._import(module)
        if mod is None:
            return None, "", None
        owner_path, _, name = path.rpartition(".")
        try:
            owner = _dotted(mod, owner_path) if owner_path else mod
            return owner, name, getattr(owner, name)
        except AttributeError:
            self.missing.add(f"{module}.{path}")
            return None, "", None

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        if name in vars(owner):
            original = vars(owner)[name]
            self._undo.append(lambda: setattr(owner, name, original))
        else:
            self._undo.append(lambda: delattr(owner, name))
        setattr(owner, name, value)

    def _wrap_span(self, span: str, module: str, path: str) -> None:
        owner, name, target = self._resolve(module, path)
        if owner is None:
            return
        spans = self.spans

        @functools.wraps(target)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                spans[span] += time.perf_counter() - start

        self._patch(owner, name, timed)

    def _track(self, module: str, cls_name: str) -> None:
        if (module, cls_name) in self._instances:
            return
        cls, _name, init = self._resolve(module, f"{cls_name}.__init__")
        if cls is None:
            return
        created: List[Any] = []
        self._instances[(module, cls_name)] = created

        @functools.wraps(init)
        def tracking_init(obj: Any, *args: Any, **kwargs: Any) -> None:
            created.append(obj)
            init(obj, *args, **kwargs)

        self._patch(cls, "__init__", tracking_init)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def take_counters(self) -> Dict[str, float]:
        """Sum the public counters over every tracked instance, then let
        the instances go."""
        out: Dict[str, float] = {}
        for counter, (module, cls, attr) in COUNTERS.items():
            total = 0
            try:
                for obj in self._instances.get((module, cls), ()):
                    total += _dotted(obj, attr)
            except AttributeError:
                self.missing.add(f"{module}.{cls}.{attr}")
            out[counter] = total
        for created in self._instances.values():
            created.clear()
        return out

    def take_spans(self) -> Dict[str, float]:
        out = {span: self.spans.get(span, 0.0) for span in SPANS}
        self.spans.clear()
        return out

    def profile(self, fn: Callable[[], Any]) -> Any:
        self._profile = cProfile.Profile()
        self._profile.enable()
        try:
            return fn()
        finally:
            self._profile.disable()

    def _layer_of(self, filename: str) -> Optional[str]:
        try:
            return self._layer_cache[filename]
        except KeyError:
            layer = next(
                (
                    layer
                    for prefix, layer in self._prefixes
                    if filename.startswith(prefix)
                ),
                None,
            )
            self._layer_cache[filename] = layer
            return layer

    def fold(self) -> Dict[str, float]:
        """The profile folded by layer: ``.self_s``, ``.calls``, the
        profile-derived call counts, ``other.self_s`` and
        ``trace.layer_share``."""
        self._profile.create_stats()
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        named: Dict[Tuple[str, str], int] = defaultdict(int)
        other = 0.0
        for (filename, _line, func), (_cc, nc, tt, _ct, callers) in (
            self._profile.stats.items()
        ):
            layer = self._layer_of(filename)
            if layer is not None:
                self_s[layer] += tt
                calls[layer] += nc
                named[(layer, func)] += nc
            elif filename == "~" and callers:
                # A built-in: charge each caller's module for its share.
                for (caller_file, _l, _f), caller_stats in callers.items():
                    caller_layer = self._layer_of(caller_file)
                    if caller_layer is not None:
                        self_s[caller_layer] += caller_stats[2]
                    else:
                        other += caller_stats[2]
            else:
                other += tt
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        for counter, key in CALL_COUNTS.items():
            out[counter] = named[key]
        out["other.self_s"] = other
        total = other + sum(self_s.values())
        out["trace.layer_share"] = (total - other) / total if total else 0.0
        return out
