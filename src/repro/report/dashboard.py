"""Terminal dashboard: watch a pooled sweep fill its cache dir.

``repro-report watch DIR`` (also ``python -m repro.report watch DIR``)
tails a cache directory while a ``workers=N`` sweep runs against it:

* the **shard count** is live — the executor streams each completed
  (cell, replicate) into the cache as it arrives, so the count climbing
  is the sweep making progress, and the per-refresh delta is the
  current cell completion rate;
* the **dispatch trail** (``dispatch-stats.json``) contributes the last
  completed pooled run: workers, wall time, cells cached and computed;
* the **cache counters** (``cache-stats.json``) show cumulative
  hits / misses / stores.

Everything is rendered by the pure function :func:`render_dashboard`
(state in, list of lines out) so the display is unit-testable on a
recorded stats trail with no pty; :func:`watch` adds the refresh loop —
curses full-screen when stdout is a real terminal (``q`` quits, ``r``
forces an immediate refresh), a plain reprint otherwise.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

__all__ = ["read_state", "render_dashboard", "watch"]

#: Characters of the progress bar's filled/empty cells.
_BAR_FILL = "█"
_BAR_EMPTY = "·"


def _count_shards(root: pathlib.Path) -> int:
    """Fast shard count: ``<2-hex>/<key>.json`` files, no parsing.

    ``cache_stats`` opens and validates every shard — far too heavy to
    poll once a second against a 10k-cell cache; a directory scan is
    enough for a progress count.
    """
    count = 0
    try:
        subdirs = [d for d in root.iterdir() if d.is_dir() and len(d.name) == 2]
    except OSError:
        return 0
    for sub in subdirs:
        try:
            count += sum(1 for p in sub.iterdir() if p.suffix == ".json")
        except OSError:
            continue
    return count


def read_state(path: Any) -> Dict[str, Any]:
    """One snapshot of a cache dir: shards, counters, dispatch trail."""
    root = pathlib.Path(path)
    counters = {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0, "runs": 0}
    try:
        with open(root / "cache-stats.json", "r", encoding="utf-8") as fh:
            recorded = json.load(fh)
        for name in counters:
            counters[name] = int(recorded.get(name, 0))
    except (OSError, ValueError):
        pass
    from repro.sweep.dispatch import load_dispatch_stats

    return {
        "path": str(root),
        "exists": root.is_dir(),
        "shards": _count_shards(root),
        "counters": counters,
        "runs": load_dispatch_stats(root).get("runs", []),
    }


def _bar(done: int, total: int, width: int) -> str:
    if total <= 0:
        return _BAR_EMPTY * width
    filled = min(width, max(0, round(width * done / total)))
    return _BAR_FILL * filled + _BAR_EMPTY * (width - filled)


def render_dashboard(
    state: Dict[str, Any],
    previous: Optional[Dict[str, Any]] = None,
    elapsed_s: Optional[float] = None,
    width: int = 78,
) -> List[str]:
    """The dashboard frame for one state snapshot, as plain lines.

    ``previous``/``elapsed_s`` (the prior snapshot and the seconds
    between them) turn the shard delta into a live cells/s rate.  Pure —
    no clock reads, no terminal I/O — so tests drive it directly on
    recorded trails.
    """
    lines: List[str] = []
    title = f" repro-report watch — {state['path']} "
    lines.append(title[:width])
    lines.append("─" * width)
    if not state.get("exists", True):
        lines.append("(cache directory does not exist yet — waiting)")
        return lines
    shards = state["shards"]
    rate = ""
    if previous is not None and elapsed_s:
        delta = shards - previous.get("shards", 0)
        if delta > 0:
            rate = f"  (+{delta} shards, {delta / elapsed_s:.1f} cells/s)"
        else:
            rate = "  (idle)"
    lines.append(f"shards: {shards}{rate}")
    counters = state["counters"]
    total_lookups = counters["hits"] + counters["misses"]
    hit_rate = (
        f"{counters['hits'] / total_lookups:.1%}" if total_lookups else "n/a"
    )
    lines.append(
        f"cache:  {counters['hits']} hits / {counters['misses']} misses "
        f"({hit_rate}), {counters['stores']} stores, "
        f"{counters['corrupt']} corrupt, {counters['runs']} runs"
    )
    runs = state.get("runs") or []
    if not runs:
        lines.append("")
        lines.append("no dispatch recorded yet in this cache dir")
        return lines
    last = runs[-1]
    total = int(last.get("cells_total", 0))
    cached = int(last.get("cells_cached", 0))
    completed = int(last.get("completed", 0))
    done = cached + completed
    lines.append("")
    lines.append(
        f"last dispatch: {last.get('backend', '?')} × "
        f"{last.get('workers', '?')} workers, "
        f"{last.get('wall_s', 0.0):.2f}s wall"
    )
    bar_width = max(10, width - 24)
    lines.append(
        f"cells  [{_bar(done, total, bar_width)}] {done}/{total or '?'}"
    )
    lines.append(
        f"        {cached} cached, {completed} computed, "
        f"{last.get('stolen', 0)} stolen, {last.get('reissued', 0)} "
        f"re-issued, {last.get('duplicates', 0)} duplicates"
    )
    history = runs[:-1]
    if history:
        lines.append("")
        lines.append(f"({len(history)} earlier dispatch runs in the trail)")
    return lines


def watch(
    path: Any,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    stream: Optional[TextIO] = None,
    use_curses: Optional[bool] = None,
) -> int:
    """Refresh the dashboard until interrupted (or ``iterations`` frames).

    ``use_curses=None`` auto-detects: full-screen curses on a tty,
    otherwise plain frames to ``stream`` separated by a rule — which is
    also the mode tests and ``--once`` use.
    """
    stream = stream if stream is not None else sys.stdout
    if use_curses is None:
        use_curses = iterations is None and _stream_is_tty(stream)
    if use_curses:
        return _watch_curses(path, interval)
    previous: Optional[Dict[str, Any]] = None
    frame = 0
    while iterations is None or frame < iterations:
        state = read_state(path)
        elapsed = interval if previous is not None else None
        try:
            for line in render_dashboard(state, previous, elapsed):
                stream.write(line + "\n")
            stream.write("\n")
            stream.flush()
        except BrokenPipeError:
            # `watch … | head` closes the pipe mid-frame; that is how the
            # reader says it is done, not an error.
            return 0
        previous = state
        frame += 1
        if iterations is not None and frame >= iterations:
            break
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            break
    return 0


def _stream_is_tty(stream: TextIO) -> bool:
    try:
        return bool(stream.isatty())
    except (AttributeError, ValueError):
        return False


def _watch_curses(path: Any, interval: float) -> int:  # pragma: no cover
    """Full-screen mode; exercised manually (tests drive the renderer)."""
    import curses

    def loop(screen: "curses.window") -> None:
        curses.curs_set(0)
        screen.timeout(int(interval * 1000))
        previous: Optional[Dict[str, Any]] = None
        last_draw = time.monotonic()
        while True:
            state = read_state(path)
            now = time.monotonic()
            elapsed = (now - last_draw) if previous is not None else None
            last_draw = now
            height, width = screen.getmaxyx()
            screen.erase()
            lines = render_dashboard(
                state, previous, elapsed, width=max(20, width - 1)
            )
            for y, line in enumerate(lines[: height - 1]):
                screen.addnstr(y, 0, line, width - 1)
            screen.addnstr(
                height - 1, 0, " q quit · r refresh ", width - 1,
                curses.A_REVERSE,
            )
            screen.refresh()
            previous = state
            key = screen.getch()
            if key in (ord("q"), ord("Q")):
                return
            # 'r' (or any other key) falls through to an immediate refresh.

    try:
        curses.wrapper(loop)
    except KeyboardInterrupt:
        pass
    return 0
