"""Unit tests for repro.obs.registry instruments and registries."""

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter("push.chunks")
        c.inc()
        c.inc(31)
        assert c.snapshot() == 32.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_tracks_current_and_max(self):
        g = Gauge("queue_depth")
        g.set(5)
        g.set(9)
        g.set(2)
        assert g.snapshot() == {"value": 2, "max": 9}

    def test_histogram_summary(self):
        h = Histogram("latency")
        for v in (0.1, 0.3, 0.2):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 0.1
        assert snap["max"] == 0.3
        assert snap["mean"] == pytest.approx(0.2)

    def test_empty_histogram_snapshot(self):
        snap = Histogram("latency").snapshot()
        assert snap == {"count": 0, "total": 0.0, "min": None, "max": None,
                        "mean": 0.0}


class TestMetricsRegistry:
    def test_lazy_instruments_are_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_snapshot_is_sorted_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc(1)
        reg.counter("a.first").inc(2)
        reg.gauge("depth").set(4)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        assert snap["counters"]["a.first"] == 2.0
        assert snap["gauges"]["depth"]["max"] == 4
        assert snap["histograms"]["lat"]["count"] == 1

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.reset()
        assert reg.snapshot()["counters"] == {}
        assert reg.counter("a").snapshot() == 0.0
