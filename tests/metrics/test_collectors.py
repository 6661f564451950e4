"""Unit tests for the metrics collectors."""

import pytest

from repro.metrics.collectors import Histogram, TimeWeightedStat


class TestTimeWeightedStat:
    def test_mean_of_piecewise_constant_signal(self):
        stat = TimeWeightedStat()
        stat.update(1.0, 10.0)  # value 0 for [0,1)
        stat.update(3.0, 0.0)  # value 10 for [1,3)
        stat.finish(4.0)  # value 0 for [3,4)
        assert stat.mean == pytest.approx((0 * 1 + 10 * 2 + 0 * 1) / 4)

    def test_max_and_min_tracked(self):
        stat = TimeWeightedStat(initial=5.0)
        stat.update(1.0, 8.0)
        stat.update(2.0, 2.0)
        assert stat.maximum == 8.0
        assert stat.minimum == 2.0

    def test_time_going_backwards_rejected(self):
        stat = TimeWeightedStat()
        stat.update(2.0, 1.0)
        with pytest.raises(ValueError):
            stat.update(1.0, 2.0)

    def test_mean_before_any_elapsed_time(self):
        stat = TimeWeightedStat(initial=7.0)
        assert stat.mean == 7.0

    def test_current_value(self):
        stat = TimeWeightedStat()
        stat.update(1.0, 3.0)
        assert stat.current == 3.0


class TestHistogram:
    def test_observe_and_percentages(self):
        h = Histogram()
        h.observe(1, count=3)
        h.observe(2, count=1)
        assert h.percentage(1) == pytest.approx(75.0)
        assert h.percentage(2) == pytest.approx(25.0)
        assert h.percentage(3) == 0.0

    def test_items_sorted(self):
        h = Histogram()
        h.observe(5)
        h.observe(1)
        assert [v for v, _ in h.items()] == [1, 5]

    def test_mean(self):
        h = Histogram()
        h.observe(2, count=2)
        h.observe(4, count=2)
        assert h.mean() == pytest.approx(3.0)

    def test_quantile(self):
        h = Histogram()
        for v in range(1, 11):
            h.observe(v)
        assert h.quantile(0.5) == 5
        assert h.quantile(1.0) == 10
        assert h.quantile(0.0) == 0 or h.quantile(0.0) == 1

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean() == 0.0
        assert h.percentage(1) == 0.0
        assert h.quantile(0.9) == 0


class TestQuantileBoundarySemantics:
    """Regression: float `seen >= q * total` skipped buckets.

    0.9 is stored as a binary float a hair above 9/10, so with 110
    observations the old comparison demanded 100 of them where
    ceil(0.9 * 110) = 99 suffice — returning the *next* bucket.  The fix
    snaps q to its intended rational and takes an exact integer ceil.
    """

    def uniform(self, n):
        h = Histogram()
        for v in range(1, n + 1):
            h.observe(v)
        return h

    def test_p90_of_110_is_the_99th_value_not_the_100th(self):
        h = self.uniform(110)
        # Old float comparison: 0.9 * 110 == 99.00000000000001 → skipped
        # bucket 99 and returned 100.
        assert h.quantile(0.9) == 99

    def test_known_float_trap_cases(self):
        # Every (q, n) pair here has q*n landing just above the integer.
        for q, n, expected in [
            (0.9, 110, 99),
            (0.7, 10, 7),
            (0.07, 100, 7),
            (0.29, 100, 29),
        ]:
            assert self.uniform(n).quantile(q) == expected, (q, n)

    def test_exact_integer_thresholds_against_fraction_reference(self):
        from fractions import Fraction

        for n in (1, 3, 7, 10, 110, 333):
            h = self.uniform(n)
            for num in range(0, 101):
                q = num / 100.0
                need = -(-Fraction(num, 100).numerator * n
                         // Fraction(num, 100).denominator)
                expected = max(1, need)
                assert h.quantile(q) == min(expected, n), (q, n)

    def test_boundaries_are_min_and_max_observed(self):
        h = Histogram()
        h.observe(7, count=3)
        h.observe(12, count=2)
        assert h.quantile(0.0) == 7
        assert h.quantile(1.0) == 12

    def test_weighted_buckets(self):
        h = Histogram()
        h.observe(1, count=90)
        h.observe(2, count=10)
        assert h.quantile(0.9) == 1  # the 90th observation is still a 1
        assert h.quantile(0.91) == 2

    def test_empty_still_returns_zero(self):
        assert Histogram().quantile(0.5) == 0
