"""Order statistics used by the harness and by ``compare``."""

import math
import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; with few samples the top ones collapse onto
    the maximum, which is the highest percentile such a sample supports."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q3]`` as ``statistics.quantiles(values, n=4)`` gives them (the
    driver's rule); a single sample is its own quartiles."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, q3 = quartiles(values)
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "max": max(values),
    }
