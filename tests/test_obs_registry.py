"""Tests for the unified metrics registry (repro.obs.registry)."""

import pytest

from repro.obs import MetricsRegistry


class TestHandles:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests", protocol="ttl")
        c.inc()
        c.inc(4)
        assert reg.value("requests", protocol="ttl") == 5

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        g = reg.gauge("cache_bytes", site="proxy-1")
        g.set(100)
        g.set(42)
        assert reg.value("cache_bytes", site="proxy-1") == 42

    def test_timer_observes(self):
        reg = MetricsRegistry()
        t = reg.timer("latency")
        for v in (0.1, 0.2, 0.3):
            t.observe(v)
        assert t.stats.count == 3
        assert t.stats.mean == pytest.approx(0.2)

    def test_get_or_create_returns_same_handle(self):
        reg = MetricsRegistry()
        a = reg.counter("n", k="v")
        b = reg.counter("n", k="v")
        assert a is b
        a.inc()
        b.inc()
        assert reg.value("n", k="v") == 2
        assert len(reg) == 1

    def test_label_values_stringified(self):
        # counter(..., days=50) and counter(..., days="50") are one series.
        reg = MetricsRegistry()
        reg.counter("n", days=50).inc()
        reg.counter("n", days="50").inc()
        assert reg.value("n", days=50) == 2

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        reg.counter("n", a="1", b="2").inc()
        reg.counter("n", b="2", a="1").inc()
        assert reg.value("n", a="1", b="2") == 2
        assert len(reg) == 1


class TestQueries:
    def build(self):
        reg = MetricsRegistry()
        reg.counter("requests", protocol="ttl", site="p1").inc(3)
        reg.counter("requests", protocol="ttl", site="p2").inc(5)
        reg.counter("requests", protocol="polling", site="p1").inc(7)
        return reg

    def test_total_sums_across_labels(self):
        reg = self.build()
        assert reg.total("requests") == 15

    def test_total_filters_on_labels(self):
        reg = self.build()
        assert reg.total("requests", protocol="ttl") == 8
        assert reg.total("requests", protocol="ttl", site="p2") == 5
        assert reg.total("requests", protocol="lease") == 0

    def test_value_missing_series_is_none(self):
        reg = self.build()
        assert reg.value("requests", protocol="nope") is None

    def test_series_iterates_every_kind(self):
        reg = self.build()
        reg.gauge("cache_bytes").set(9)
        reg.timer("latency").observe(0.5)
        kinds = [kind for kind, _name, _labels, _h in reg.series()]
        assert kinds.count("counter") == 3
        assert kinds.count("gauge") == 1
        assert kinds.count("timer") == 1
        assert len(reg) == 5

    def test_to_dict_and_render(self):
        reg = self.build()
        reg.timer("latency").observe(0.5)
        data = reg.to_dict()
        assert len(data["counters"]) == 3
        assert data["timers"][0]["name"] == "latency"
        assert data["timers"][0]["count"] == 1
        text = reg.render()
        assert "requests{protocol=ttl,site=p2} 5" in text
        assert "latency" in text
