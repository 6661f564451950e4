"""``python3 -m bench compare A.json B.json``: B judged against A.

One row per (workload, end-to-end metric).  The ratio is always B ÷ A, the
bound comes from ``BENCHMARK.json``, and a metric whose own spread (inter-
quartile distance over its per-iteration samples, as a share of the median)
exceeds the bound on either side is ``unresolved`` — never ``unchanged``.
"""

import json
from typing import Any, Dict

from bench.stats import quartiles, spread

#: ``setup_s`` may worsen by its bound or by this much, whichever is larger:
#: a quarter of a sub-second import is inside scheduler noise.
SETUP_FLOOR_S = 0.10


def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> str:
    bound = metric["bound"]
    if max(spread(a["samples"]), spread(b["samples"])) > bound:
        return "unresolved"
    worse = b["value"] - a["value"]
    if metric["better"] == "higher":
        worse = -worse
    allowed = bound * a["value"]
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if worse > allowed:
        return "regressed"
    return "improved" if worse < -allowed else "unchanged"


def compare(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    with open(path_a, "r", encoding="utf-8") as fh:
        a = json.load(fh)["workloads"]
    with open(path_b, "r", encoding="utf-8") as fh:
        b = json.load(fh)["workloads"]
    regressed = False
    print(f"{'workload':<17}{'metric':<16}{'A median [q1, q3]':>32}"
          f"{'B median [q1, q3]':>32}{'B/A':>8}{'bound':>7}  verdict")
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in a or name not in b:
            continue
        for metric in contract["end_to_end"]:
            ea = a[name]["metrics"][metric["name"]]
            eb = b[name]["metrics"][metric["name"]]
            outcome = verdict(metric, ea, eb)
            regressed |= outcome == "regressed"
            cells = [
                "{:.4g} [{:.4g}, {:.4g}]".format(e["value"], *quartiles(e["samples"]))
                for e in (ea, eb)
            ]
            print(f"{name:<17}{metric['name']:<16}{cells[0]:>32}{cells[1]:>32}"
                  f"{eb['value'] / ea['value']:>7.3f}x{metric['bound']:>+7.0%}"
                  f"  {outcome}")
        fa, fb = a[name]["failed_share"], b[name]["failed_share"]
        outcome = ("regressed" if fb > fa else
                   "improved" if fb < fa else "unchanged")
        regressed |= outcome == "regressed"
        shares = [
            f"{w['failed_share']:.4g} ({w['failed']}/{w['attempted']})"
            for w in (a[name], b[name])
        ]
        print(f"{name:<17}{'failed_share':<16}{shares[0]:>32}{shares[1]:>32}"
              f"{fb - fa:>+8.3g}{'+0 abs':>7}  {outcome}")
    print("ratios are B over A; failed_share is compared absolutely (B − A)")
    return 1 if regressed else 0
