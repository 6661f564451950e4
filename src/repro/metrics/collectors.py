"""Measurement primitives used by trace analysis and scenario metrics.

All collectors take explicit timestamps (simulated time) rather than
reading a clock, so they work identically under the discrete-event
simulator and in offline trace analysis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

__all__ = ["TimeWeightedStat", "Histogram"]


class TimeWeightedStat:
    """Time-weighted mean/max of a piecewise-constant signal.

    Used for buffer occupancy (Figure 4(b) reports occupancy in messages):
    call :meth:`update` whenever the signal changes, then :meth:`finish`.
    """

    __slots__ = (
        "_last_time", "_value", "_weighted_sum", "_elapsed", "maximum", "minimum"
    )

    def __init__(self, start_time: float = 0.0, initial: float = 0.0) -> None:
        self._last_time = start_time
        self._value = initial
        self._weighted_sum = 0.0
        self._elapsed = 0.0
        self.maximum = initial
        self.minimum = initial

    @property
    def current(self) -> float:
        return self._value

    def update(self, time: float, value: float) -> None:
        if time < self._last_time:
            raise ValueError(f"time went backwards: {time} < {self._last_time}")
        dt = time - self._last_time
        self._weighted_sum += self._value * dt
        self._elapsed += dt
        self._last_time = time
        self._value = value
        if value > self.maximum:
            self.maximum = value
        if value < self.minimum:
            self.minimum = value

    def finish(self, time: float) -> None:
        """Account the signal up to ``time`` without changing it."""
        self.update(time, self._value)

    @property
    def mean(self) -> float:
        if self._elapsed == 0:
            return self._value
        return self._weighted_sum / self._elapsed


class Histogram:
    """Integer-bucketed histogram with percentage views.

    Figures 3(a) and 3(b) are both percentage histograms; this class turns
    raw observations into the paper's "% of rounds" / "% of messages" rows.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}
        self.total = 0

    def observe(self, value: int, count: int = 1) -> None:
        self._buckets[value] = self._buckets.get(value, 0) + count
        self.total += count

    def count(self, value: int) -> int:
        return self._buckets.get(value, 0)

    def percentage(self, value: int) -> float:
        if self.total == 0:
            return 0.0
        return 100.0 * self._buckets.get(value, 0) / self.total

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._buckets.items())

    def percentages(self) -> List[Tuple[int, float]]:
        return [(v, self.percentage(v)) for v, _ in self.items()]

    def mean(self) -> float:
        if self.total == 0:
            return 0.0
        return sum(v * c for v, c in self._buckets.items()) / self.total

    def quantile(self, q: float) -> int:
        """Smallest bucket value covering fraction ``q`` of observations.

        Boundary semantics: the result is the smallest bucket value ``v``
        whose cumulative count reaches ``max(1, ceil(q * total))``
        observations — so ``quantile(0.0)`` is the minimum observed value
        (one observation, not zero, is required) and ``quantile(1.0)`` the
        maximum.  The threshold is computed in exact integer arithmetic:
        ``q`` is first snapped to the rational it was written as (0.9 is
        stored as a binary float a hair *above* 9/10, so the naive
        ``seen >= q * total`` comparison demands 100 of 110 observations
        where 99 suffice), then ``ceil`` is taken over integers with no
        float product anywhere.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        if self.total == 0:
            return 0
        # Fraction(q).limit_denominator recovers the decimal/rational the
        # caller wrote (9/10 from the float nearest 0.9); -(-a // b) is
        # ceil(a / b) on exact integers.
        frac = Fraction(q).limit_denominator(10**12)
        need = -(-frac.numerator * self.total // frac.denominator)
        if need < 1:
            need = 1
        seen = 0
        for value, count in self.items():
            seen += count
            if seen >= need:
                return value
        return self.items()[-1][0]
