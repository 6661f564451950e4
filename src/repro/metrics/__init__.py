"""Metrics: time-weighted statistics and histograms."""

from repro.metrics.collectors import Histogram, TimeWeightedStat

__all__ = ["TimeWeightedStat", "Histogram"]
