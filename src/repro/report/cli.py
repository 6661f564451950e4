"""``repro-report``: render result artefacts, watch a running pooled sweep.

Two subcommands (also reachable as ``python -m repro.report``):

``repro-report render FILE... --out DIR``
    Render one report from any mix of result artefacts — sweep dumps
    (``SweepResult.to_dict`` JSON), scenario / fault-run dumps, or plain
    JSON — into ``DIR/report.md`` + ``DIR/report.html`` + chart SVGs.
    ``--cache-dir DIR`` appends the volatile cache/dispatch
    observability sections (HTML only, so the markdown stays
    deterministic).  ``--title`` overrides the heading.

``repro-report watch DIR``
    Terminal dashboard tailing a sweep cache directory while a pooled
    sweep runs against it: live shard count and completion rate, cache
    counters, and the last pooled run's workers, wall time and cell
    counts.  Curses full-screen on a tty (``q``
    quits); ``--once`` prints a single plain frame and exits, ``--frames
    N`` prints N frames (both tty-free, what CI and tests use).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

__all__ = ["main"]


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.report.model import ReportBuilder
    from repro.report.sources import load_payload, payload_sections

    builder = ReportBuilder(
        args.title or "repro result report",
        subtitle="Rendered by `repro-report render`.",
    )
    status = 0
    for name in args.files:
        path = pathlib.Path(name)
        try:
            payload = load_payload(path)
        except (OSError, ValueError) as exc:
            print(f"repro-report: cannot read {path}: {exc}", file=sys.stderr)
            status = 1
            continue
        for section in payload_sections(path.stem, payload):
            builder.sections.append(section)
    if args.cache_dir:
        builder.add_cache_dir(args.cache_dir)
    written = builder.write(args.out, basename=args.basename)
    print(f"wrote {written['markdown']}")
    print(f"wrote {written['html']}")
    for chart in written["charts"]:
        print(f"wrote {chart}")
    return status


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.report.dashboard import watch

    iterations: Optional[int]
    if args.once:
        iterations = 1
    else:
        iterations = args.frames
    return watch(args.dir, interval=args.interval, iterations=iterations)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="render repro result artefacts; watch a running pooled sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser(
        "render", help="render JSON artefacts to markdown + HTML"
    )
    render.add_argument(
        "files", nargs="+", metavar="FILE",
        help="sweep/scenario/fault JSON dumps (any mix)",
    )
    render.add_argument(
        "--out", required=True, metavar="DIR", help="report output directory"
    )
    render.add_argument(
        "--title", default=None, help="report title (default: generic)"
    )
    render.add_argument(
        "--basename", default="report",
        help="output file stem (default: report)",
    )
    render.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="append volatile cache/dispatch stats sections from this "
        "sweep cache directory (HTML report only)",
    )
    render.set_defaults(func=_cmd_render)

    watch = sub.add_parser(
        "watch", help="terminal dashboard over a sweep cache directory"
    )
    watch.add_argument("dir", help="sweep cache directory to tail")
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="print one plain-text frame and exit (no curses)",
    )
    watch.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="print N plain-text frames then exit (no curses)",
    )
    watch.set_defaults(func=_cmd_watch)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
