"""Metrics registry: counters and fixed-bucket histograms.

Deliberately minimal — no labels, no time series, no export protocol.
A metric is a name and a value (or bucket counts); the registry is a
sorted dictionary of them.  Determinism is the design constraint that
shapes everything: bucket boundaries are fixed at creation, snapshots
iterate in sorted name order, and nothing reads a clock, so the metric
block appended to a trace file is byte-identical across equal runs.
"""

from __future__ import annotations

import bisect
from typing import Sequence


class Counter:
    """A monotonically increasing value (ints or floats)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount=1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative inc {amount}")
        self.value += amount

    def snapshot(self) -> dict:
        return {"kind": "counter", "value": self.value}


class Histogram:
    """A histogram with fixed, sorted bucket boundaries.

    ``bounds`` are upper-inclusive edges; one overflow bucket catches
    everything above the last edge, so ``counts`` has
    ``len(bounds) + 1`` entries.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: Sequence):
        edges = tuple(bounds)
        if not edges or list(edges) != sorted(edges):
            raise ValueError(
                f"histogram {name}: bounds must be non-empty and sorted"
            )
        self.name = name
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def snapshot(self) -> dict:
        return {
            "kind": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """A flat, name-keyed store of metrics.

    ``counter``/``histogram`` create on first use and return
    the existing instrument afterwards; asking for a name under a
    different type is a programming error and raises.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Histogram] = {}

    def _get(self, name: str, factory, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)

    def histogram(self, name: str, bounds: Sequence) -> Histogram:
        return self._get(name, lambda: Histogram(name, bounds), Histogram)

    def inc(self, name: str, amount=1) -> None:
        """Shorthand: increment the counter called *name*."""
        self.counter(name).inc(amount)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        """The instrument registered under *name*, or None."""
        return self._metrics.get(name)

    def value(self, name: str, default=0):
        """The value of a counter, or *default* if absent."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a histogram, not a scalar")
        return metric.value

    def snapshot(self) -> dict[str, dict]:
        """All metrics as plain JSON-safe dicts, in sorted name order."""
        return {
            name: self._metrics[name].snapshot()
            for name in sorted(self._metrics)
        }
