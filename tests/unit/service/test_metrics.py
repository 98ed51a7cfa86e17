"""Unit tests for the service metrics registry (vidb.obs.metrics)."""

import threading

import pytest

from vidb.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    format_snapshot,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = Counter()

        def spin():
            for __ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogram:
    def test_empty_snapshot(self):
        assert Histogram().snapshot() == {"count": 0}

    def test_aggregates(self):
        hist = Histogram(buckets=[0.1, 1.0])
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 0.05
        assert snap["max"] == 2.0
        assert snap["sum"] == pytest.approx(2.55)

    def test_quantiles_use_bucket_bounds(self):
        hist = Histogram(buckets=[1, 10, 100])
        for __ in range(99):
            hist.observe(0.5)
        hist.observe(50)
        assert hist.quantile(0.5) == 1
        assert hist.quantile(1.0) == 100

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)


class TestMetricsRegistry:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_is_plain_and_sorted(self):
        registry = MetricsRegistry()
        registry.inc("b.count", 2)
        registry.inc("a.count")
        registry.observe("latency", 0.2)
        snap = registry.snapshot()
        assert snap["a.count"] == 1
        assert snap["b.count"] == 2
        assert snap["latency"]["count"] == 1
        assert list(snap)[:2] == ["a.count", "b.count"]
        # must serialize to JSON for the wire protocol
        import json

        json.dumps(snap)


class TestFormatSnapshot:
    def test_alignment_and_nesting(self):
        text = format_snapshot({
            "queries.served": 3,
            "hit": 1,
            "latency": {"count": 3, "mean": 0.001},
        })
        lines = text.splitlines()
        assert "queries.served : 3" in lines
        assert any(line.startswith("hit ") for line in lines)
        assert "latency:" in lines
        assert any(line.startswith("  count") for line in lines)

    def test_empty(self):
        assert format_snapshot({}) == ""
