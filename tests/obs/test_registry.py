"""Unit tests for the label-aware metrics registry."""

from __future__ import annotations

import math

import pytest

from repro.obs.registry import (
    CallbackGauge,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
)


def test_counter_get_or_create_identity():
    reg = MetricsRegistry()
    a = reg.counter("x.bytes", link="fwd")
    b = reg.counter("x.bytes", link="fwd")
    assert a is b
    a.add(10)
    b.add(5)
    assert a.total == 15
    assert a.count == 2
    assert a.value == 15


def test_labels_partition_families():
    reg = MetricsRegistry()
    reg.counter("x.bytes", link="fwd").add(1)
    reg.counter("x.bytes", link="rev").add(2)
    assert len(reg.family("x.bytes")) == 2
    assert reg.label_values("x.bytes", "link") == {"fwd": 1, "rev": 2}
    # Label order in the call never matters.
    assert reg.counter("y", a=1, b=2) is reg.counter("y", b=2, a=1)


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")
    with pytest.raises(TypeError):
        reg.gauge_fn("x", lambda: 0.0)


def test_gauge_set_max_and_add():
    g = MetricsRegistry().gauge("peak")
    g.set_max(5)
    g.set_max(3)
    assert g.value == 5
    g.add(2)
    assert g.value == 7
    g.set(1)
    assert g.value == 1


def test_callback_gauge_reads_live_and_survives_errors():
    reg = MetricsRegistry()
    state = {"v": 1}
    g = reg.gauge_fn("depth", lambda: state["v"])
    assert g.value == 1
    state["v"] = 7
    assert g.value == 7
    bad = reg.gauge_fn("boom", lambda: 1 / 0)
    assert math.isnan(bad.value)


def test_histogram_summary_and_empty_nan():
    h = MetricsRegistry().histogram("lat")
    assert math.isnan(h.percentile(50))
    assert h.summary()["count"] == 0
    assert math.isnan(h.summary()["p99"])
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    s = h.summary()
    assert s["count"] == 4
    assert s["mean"] == 2.5
    # The streaming histogram is bucketed: the p50 lies between the
    # bracketing order statistics to within one bucket width.
    assert 2.0 / h.BUCKET_WIDTH <= s["p50"] <= 3.0 * h.BUCKET_WIDTH
    assert s["max"] == 4.0


def test_snapshot_shapes():
    reg = MetricsRegistry()
    reg.counter("c", i=0).add(3)
    reg.gauge("g").set(2.5)
    reg.histogram("h").observe(1.0)
    reg.gauge_fn("f", lambda: 9)
    recs = {r["metric"]: r for r in reg.snapshot()}
    assert recs["c"] == {
        "metric": "c", "kind": "counter", "labels": {"i": 0},
        "value": 3.0, "count": 1,
    }
    assert recs["g"]["value"] == 2.5
    assert recs["h"]["summary"]["count"] == 1
    assert recs["f"]["kind"] == "gauge" and recs["f"]["value"] == 9.0


def test_remove_prunes_one_label_set():
    reg = MetricsRegistry()
    reg.counter("dup", session=1).add()
    reg.counter("dup", session=2).add()
    assert reg.remove("dup", session=1)
    assert not reg.remove("dup", session=1)
    assert [m.labels["session"] for m in reg.family("dup")] == [2]
    assert len(reg) == 1


def test_sequence_numbers_instances():
    reg = MetricsRegistry()
    assert [reg.sequence("pool"), reg.sequence("pool"), reg.sequence("link")] == [
        0, 1, 0,
    ]


def test_iter_and_get():
    reg = MetricsRegistry()
    c = reg.counter("a")
    assert list(reg) == [c]
    assert reg.get("a") is c
    assert reg.get("a", i=1) is None
    assert isinstance(c, CounterMetric)
    assert isinstance(reg.gauge("b"), GaugeMetric)
    assert isinstance(reg.histogram("c"), HistogramMetric)
    assert isinstance(reg.gauge_fn("d", lambda: 0), CallbackGauge)
