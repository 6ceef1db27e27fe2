"""MetricsRegistry unit tests: cells, labels, histograms, sources."""

from __future__ import annotations

import pytest

from repro.obs.metrics import DEFAULT_BUCKET_BOUNDS, Histogram, MetricsRegistry
from repro.sim.monitor import Counter as MonitorCounter


def test_counter_cells_are_keyed_by_name_and_labels():
    reg = MetricsRegistry()
    reg.inc("grants", resource="Buffer")
    reg.inc("grants", resource="Buffer", amount=2)
    reg.inc("grants", resource="Printer")
    scrape = reg.scrape()
    assert scrape["grants{resource=Buffer}"] == 3
    assert scrape["grants{resource=Printer}"] == 1


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("x", amount=-1)


def test_label_order_is_canonical():
    reg = MetricsRegistry()
    reg.inc("m", b="2", a="1")
    reg.inc("m", a="1", b="2")
    assert reg.scrape() == {"m{a=1,b=2}": 2}


def test_gauge_settable_and_callable():
    reg = MetricsRegistry()
    reg.gauge("residents").set(4.0)
    backing = {"v": 0.0}
    reg.gauge("lazy", fn=lambda: backing["v"])
    backing["v"] = 7.5
    scrape = reg.scrape()
    assert scrape["residents"] == 4.0
    assert scrape["lazy"] == 7.5
    with pytest.raises(ValueError):
        reg.gauge("lazy").set(1.0)


def test_histogram_buckets_and_quantiles():
    h = Histogram(bounds=[1.0, 10.0, 100.0])
    for v in (0.5, 5.0, 5.0, 50.0, 500.0):
        h.observe(v)
    assert h.counts == [1, 2, 1, 1]
    assert h.count == 5
    assert h.min == 0.5 and h.max == 500.0
    assert h.mean == pytest.approx(112.1)
    assert h.quantile(0.5) == 10.0
    assert h.quantile(1.0) == 500.0  # overflow bucket reports the max
    summary = h.summary()
    assert summary["count"] == 5 and summary["p50"] == 10.0


def test_default_bounds_are_log_spaced_ns():
    assert DEFAULT_BUCKET_BOUNDS[0] == 256.0
    assert DEFAULT_BUCKET_BOUNDS[-1] == 2.0**32
    ratios = {
        b / a for a, b in zip(DEFAULT_BUCKET_BOUNDS, DEFAULT_BUCKET_BOUNDS[1:])
    }
    assert ratios == {2.0}


def test_histogram_cell_reused_per_labelset():
    reg = MetricsRegistry()
    reg.histogram("lat_ns", resource="Buffer").observe(300.0)
    reg.histogram("lat_ns", resource="Buffer").observe(600.0)
    summary = reg.scrape()["lat_ns{resource=Buffer}"]
    assert summary["count"] == 2


def test_register_source_is_lazy():
    reg = MetricsRegistry()
    stats = MonitorCounter()
    reg.register_source("server", stats, server="s0")
    stats.add("transfers_out")  # bumped *after* registration
    stats.add("transfers_out")
    assert reg.scrape()["server.transfers_out{server=s0}"] == 2


def test_register_source_requires_as_dict():
    reg = MetricsRegistry()
    with pytest.raises(TypeError):
        reg.register_source("bad", object())


def test_render_text_is_sorted_lines():
    reg = MetricsRegistry()
    reg.inc("b_metric")
    reg.inc("a_metric")
    text = reg.render_text()
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    assert "a_metric 1" in lines



def test_include_folds_registries_at_read_time():
    world, host_a, host_b = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
    world.include(host_a)
    world.include(host_b)
    stats = MonitorCounter()
    host_a.register_source("server", stats, server="a")
    world.inc("hook_fed")
    stats.add("transfers_out")  # bumped *after* the include
    host_b.histogram("lat_ns", server="b").observe(600.0)
    scrape = world.scrape()
    assert scrape["server.transfers_out{server=a}"] == 1
    assert scrape["hook_fed"] == 1
    assert scrape["lat_ns{server=b}"]["count"] == 1
