"""Tests for the metrics registry and its WorkMeter integration."""

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.resilience.budget import BudgetExceeded, WorkMeter


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(3)
        assert counter.snapshot() == {"kind": "counter", "value": 3}


class TestHistogram:
    def test_bucketing_with_overflow(self):
        hist = Histogram("h", (10, 100))
        for value in (1, 10, 11, 100, 101, 5000):
            hist.observe(value)
        # bisect_left on upper-inclusive edges: <=10, <=100, overflow.
        assert hist.counts == [2, 2, 2]
        assert hist.count == 6
        assert hist.total == 1 + 10 + 11 + 100 + 101 + 5000

    def test_bounds_must_be_sorted_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (10, 5))

    def test_snapshot_shape(self):
        hist = Histogram("h", (1, 2))
        hist.observe(1)
        snap = hist.snapshot()
        assert snap["kind"] == "histogram"
        assert snap["bounds"] == [1, 2]
        assert snap["counts"] == [1, 0, 0]
        assert snap["count"] == 1
        assert snap["sum"] == 1


class TestRegistry:
    def test_create_or_return(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h", (1,)) is registry.histogram("h", (9,))

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.histogram("h", (1,))
        with pytest.raises(TypeError):
            registry.counter("h")
        with pytest.raises(TypeError):
            registry.histogram("a", (1,))

    def test_inc_and_value_shorthand(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        assert registry.value("hits") == 3
        assert registry.value("absent", default=7) == 7

    def test_value_rejects_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1,))
        with pytest.raises(TypeError):
            registry.value("h")

    def test_snapshot_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.inc("zulu")
        registry.inc("alpha", 2)
        registry.histogram("mid", (1,)).observe(5)
        snap = registry.snapshot()
        assert list(snap) == ["alpha", "mid", "zulu"]
        assert snap == registry.snapshot()


class TestWorkMeterIntegration:
    def test_ticks_feed_per_op_counters(self):
        registry = MetricsRegistry()
        meter = WorkMeter(None, metrics=registry)
        meter.tick(3, op="fd.refine")
        meter.tick(2, op="fd.refine")
        meter.tick(1, op="screen.column")
        assert registry.value("ops.fd.refine") == 5
        assert registry.value("ops.screen.column") == 1
        assert meter.spent == 6

    def test_exhausting_tick_is_still_counted(self):
        registry = MetricsRegistry()
        meter = WorkMeter(4, metrics=registry)
        meter.tick(3, op="w")
        with pytest.raises(BudgetExceeded):
            meter.tick(3, op="w")
        # The charge lands before the budget check, in both places.
        assert meter.spent == 6
        assert registry.value("ops.w") == 6

    def test_event_records_without_charging(self):
        registry = MetricsRegistry()
        meter = WorkMeter(1, metrics=registry)
        meter.event("fd.level2.nodes", 40)
        assert registry.value("fd.level2.nodes") == 40
        assert meter.spent == 0

    def test_no_registry_is_silent(self):
        meter = WorkMeter(None)
        meter.tick(5, op="w")
        meter.event("anything", 3)
        assert meter.spent == 5
