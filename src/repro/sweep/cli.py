"""``repro-sweep``: maintenance CLI for the sweep cell cache.

Two subcommands over a cache directory (see :mod:`repro.sweep.cache`):

``repro-sweep stats DIR``
    Inventory: shard count and bytes, code-fingerprint breakdown (how
    many shards the current code can still hit), and the recorded
    hit/miss counters with the overall hit rate.
    ``--assert-hit-rate X`` exits non-zero when the recorded rate is
    below ``X``; combined with ``--since SNAPSHOT`` (a file written by an
    earlier ``stats --json``) the rate covers only the lookups recorded
    *after* the snapshot — how CI's warm-cache lane asserts that the
    second pass alone hit ≥90%.

    When the directory carries a ``dispatch-stats.json`` trail (written
    by every pooled ``run_sweep(workers=N)`` with a cache), ``stats``
    also reports the pooled runs per backend: runs dispatched and total
    wall time.

``repro-sweep gc DIR``
    Evict shards whose code fingerprint no longer matches the installed
    sources (plus unreadable ones).  ``--all`` clears the cache
    entirely; ``--dry-run`` only reports.

Both accept ``--json`` for machine-readable output.  Also reachable as
``python -m repro.sweep.cli``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.sweep.cache import cache_stats, gc as cache_gc

__all__ = ["main"]


def _human_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - unreachable


def _dispatch_summary(path) -> Optional[dict]:
    """Aggregate the ``dispatch-stats.json`` trail by backend (None if no
    dispatched runs were ever recorded for this cache)."""
    from repro.sweep.dispatch import load_dispatch_stats

    runs = load_dispatch_stats(path).get("runs", [])
    if not runs:
        return None
    by_backend: dict = {}
    for run in runs:
        agg = by_backend.setdefault(
            run.get("backend", "?"),
            {"runs": 0, "dispatched": 0, "stolen": 0, "reissued": 0,
             "duplicates": 0, "wall_s": 0.0},
        )
        agg["runs"] += 1
        for key in ("dispatched", "stolen", "reissued", "duplicates"):
            agg[key] += int(run.get(key, 0))
        agg["wall_s"] = round(agg["wall_s"] + float(run.get("wall_s", 0.0)), 6)
    return {"by_backend": by_backend, "last": runs[-1]}


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = cache_stats(args.dir)
    dispatch = _dispatch_summary(args.dir)
    if dispatch is not None:
        stats["dispatch"] = dispatch
    if args.since:
        with open(args.since, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
        baseline = snapshot.get("counters", snapshot)
        counters = stats["counters"]
        # The delta-window rate divides delta hits by delta lookups
        # (hits + misses accrued strictly after the snapshot) — never by
        # the cumulative counters, which would dilute a warm pass with
        # cold history.  A counter that moved *backwards* means the stats
        # file was reset (cache cleared) after the snapshot; clamping at
        # zero keeps the reported window sane instead of producing
        # negative lookups or a rate above 100 %.
        delta = {
            name: max(0, counters[name] - int(baseline.get(name, 0)))
            for name in ("hits", "misses", "stores", "corrupt", "runs")
        }
        lookups = delta["hits"] + delta["misses"]
        stats["since"] = delta
        stats["since_hit_rate"] = (delta["hits"] / lookups) if lookups else None
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        counters = stats["counters"]
        print(f"cache: {stats['path']}")
        print(
            f"  shards: {stats['shards']} ({_human_bytes(stats['bytes'])}), "
            f"{stats['stale_shards']} stale, "
            f"{stats['unreadable_shards']} unreadable"
        )
        print(f"  code fingerprint: {stats['code_fingerprint'][:16]}...")
        print(
            f"  recorded over {counters['runs']} runs: "
            f"{counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['stores']} stores, {counters['corrupt']} corrupt"
        )
        rate = stats["hit_rate"]
        print(f"  hit rate: {f'{rate:.1%}' if rate is not None else 'n/a'}")
        if args.since:
            delta = stats["since"]
            since_rate = stats["since_hit_rate"]
            print(
                f"  since snapshot: {delta['hits']} hits, "
                f"{delta['misses']} misses over {delta['runs']} runs "
                f"({f'{since_rate:.1%}' if since_rate is not None else 'n/a'})"
            )
        if dispatch is not None:
            print("  dispatch:")
            for backend, agg in sorted(dispatch["by_backend"].items()):
                print(
                    f"    {backend}: {agg['runs']} runs, "
                    f"{agg['dispatched']} dispatched, {agg['stolen']} stolen, "
                    f"{agg['reissued']} re-issued, "
                    f"{agg['duplicates']} duplicate results, "
                    f"{agg['wall_s']:.2f}s wall"
                )
    if args.assert_hit_rate is not None:
        rate = stats["since_hit_rate"] if args.since else stats["hit_rate"]
        if rate is None or rate < args.assert_hit_rate:
            print(
                f"hit rate {'n/a' if rate is None else f'{rate:.1%}'} below "
                f"required {args.assert_hit_rate:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    report = cache_gc(args.dir, remove_all=args.all, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        verb = "would evict" if args.dry_run else "evicted"
        print(
            f"{verb} {report['evicted']} shards "
            f"({_human_bytes(report['bytes'])}), kept {report['kept']}"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-sweep",
        description="Maintain a repro.sweep cell cache directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="report shard inventory and hit rates")
    stats.add_argument("dir", help="cache directory")
    stats.add_argument("--json", action="store_true", help="JSON output")
    stats.add_argument(
        "--assert-hit-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="exit 1 unless the recorded hit rate is at least RATE (0..1); "
        "with --since, only lookups after the snapshot count",
    )
    stats.add_argument(
        "--since",
        default=None,
        metavar="SNAPSHOT",
        help="a previous `stats --json` dump; report/assert the delta",
    )
    stats.set_defaults(func=_cmd_stats)

    gc = sub.add_parser("gc", help="evict stale-fingerprint shards")
    gc.add_argument("dir", help="cache directory")
    gc.add_argument("--all", action="store_true", help="clear every shard")
    gc.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    gc.add_argument("--json", action="store_true", help="JSON output")
    gc.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
