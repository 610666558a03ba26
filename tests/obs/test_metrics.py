"""The typed metrics registry: declaration and values."""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricError, MetricsRegistry


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("layer.events", "help text")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert reg.value("layer.events") == 4
        assert reg.snapshot() == {"layer.events": 4}

    def test_cannot_decrease(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_declaration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("same.name", "first")
        b = reg.counter("same.name", "second")
        assert a is b
        a.inc()
        assert b.value == 1

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")
        with pytest.raises(MetricError):
            reg.histogram("x")


class TestGauge:
    def test_set_and_value(self):
        g = MetricsRegistry().gauge("g")
        assert g.value == 0
        g.set(17)
        assert g.value == 17

    def test_callback_backed(self):
        state = {"n": 0}
        reg = MetricsRegistry()
        g = reg.gauge("net.traffic", fn=lambda: state["n"])
        state["n"] = 42
        assert g.value == 42
        assert reg.snapshot() == {"net.traffic": 42}
        with pytest.raises(MetricError):
            g.set(1)


class TestHistogram:
    def test_moments(self):
        h = MetricsRegistry().histogram("lat")
        assert h.sample() == {"lat.count": 0}
        for v in (10, 30, 20):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 60, 10, 30)
        assert h.mean == 20.0
        assert h.sample()["lat.mean"] == 20.0

    def test_registry_value_is_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(5)
        assert reg.value("lat") == 1


class TestRegistry:
    def test_registry_types(self):
        reg = MetricsRegistry()
        assert isinstance(reg.counter("a"), Counter)
        assert isinstance(reg.gauge("b"), Gauge)
        assert isinstance(reg.histogram("c"), Histogram)
        assert reg.names() == ["a", "b", "c"]
        assert reg.get("missing") is None
        assert reg.value("missing", default=-1) == -1


class TestKernelStatsSnapshot:
    def test_snapshot_derives_from_dataclass_fields(self):
        from dataclasses import fields

        from repro.kernel.stats import KernelStats

        stats = KernelStats()
        snap = stats.snapshot()
        # ``cpu`` is a dict field flattened with its own prefix instead
        # of appearing as a single key.
        expected = {f.name for f in fields(KernelStats)} - {"cpu"}
        assert set(snap) == expected
        stats.cpu["cpu0"] = 7
        assert stats.snapshot()["cpu.cpu0"] == 7

    def test_diff_keeps_earlier_only_keys(self):
        from repro.kernel.stats import KernelStats

        stats = KernelStats()
        stats.cpu["once"] = 1
        earlier = stats.snapshot()
        stats.cpu.clear()
        stats.sends += 2
        delta = stats.diff(earlier)
        # The per-CPU key present only before the baseline still
        # appears, as a negative delta (not silently dropped).
        assert delta["cpu.once"] == -1
        assert delta["sends"] == 2
