"""The structured tracer and its component hooks."""

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.sim import Engine
from repro.sim.trace import Tracer
from repro.testbeds import roce_lan


def test_tracer_records_and_filters():
    tracer = Tracer()
    tracer.emit(1.0, "a", "one", x=1)
    tracer.emit(2.0, "b", "two")
    tracer.emit(3.0, "a", "three", x=2)
    assert len(tracer) == 3
    assert [r.message for r in tracer.query(category="a")] == ["one", "three"]
    assert [r.message for r in tracer.query(since=2.5)] == ["three"]
    assert [r.message for r in tracer.query(category="a", x=2)] == ["three"]


def test_tracer_category_allowlist():
    tracer = Tracer(categories={"keep"})
    tracer.emit(0.0, "keep", "in")
    tracer.emit(0.0, "drop", "out")
    assert len(tracer) == 1
    assert not tracer.wants("drop")


def test_tracer_ring_buffer():
    tracer = Tracer(capacity=3)
    for i in range(5):
        tracer.emit(float(i), "c", f"m{i}")
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert [r.message for r in tracer.query()] == ["m2", "m3", "m4"]


def test_tracer_validation_and_str():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
    tracer = Tracer()
    tracer.emit(0.5, "cat", "msg", k="v")
    text = str(next(tracer.query()))
    assert "cat" in text and "k=v" in text


def test_engine_trace_noop_without_tracer():
    engine = Engine()
    engine.trace("x", "no crash")  # tracer is None: must be free & safe


def test_transfer_emits_protocol_trace():
    tb = roce_lan()
    tb.engine.tracer = Tracer(categories={"qp", "ctrl", "credits"})
    cfg = ProtocolConfig(
        block_size=1 << 20, num_channels=2, source_blocks=8, sink_blocks=8
    )
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, cfg)
    server.serve(4000, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, cfg)
    done = client.transfer(tb.dst_dev, 4000, PatternSource(tb.src), 16 << 20)
    tb.engine.run()
    assert done.ok
    tracer = tb.engine.tracer

    writes = list(tracer.query(category="qp", op="rdma_write"))
    assert len(writes) == 16  # one WRITE post per block
    deposits = list(tracer.query(category="credits"))
    assert deposits, "credit grants must be traced"
    ctrl = [r.fields["type"] for r in tracer.query(category="ctrl")]
    assert "block_size_req" in ctrl and "dataset_done" in ctrl
    # Records are chronological.
    times = [r.time for r in tracer.query()]
    assert times == sorted(times)


def test_clear_resets_drop_and_emit_accounting():
    tracer = Tracer(capacity=2)
    for i in range(5):
        tracer.emit(float(i), "c", f"m{i}")
    assert (tracer.emitted, tracer.dropped) == (5, 3)
    tracer.clear()
    assert len(tracer) == 0
    # A cleared tracer must look factory-fresh: stale `emitted` (or
    # `dropped`) made per-phase accounting double-count earlier phases.
    assert (tracer.emitted, tracer.dropped) == (0, 0)
    tracer.emit(9.0, "c", "after")
    assert (tracer.emitted, tracer.dropped) == (1, 0)


def test_capacity_has_a_single_source_of_truth():
    tracer = Tracer(capacity=4)
    assert tracer.capacity == 4 == tracer._records.maxlen
    # `capacity` is a read-only view of the deque bound, so the drop
    # detector can never disagree with the ring's actual size.
    with pytest.raises(AttributeError):
        tracer.capacity = 8
    for i in range(6):
        tracer.emit(float(i), "c", f"m{i}")
    assert len(tracer) == tracer.capacity == 4
    assert tracer.dropped == 2


def _traced_rftp(tracer):
    from repro.apps.rftp import run_rftp

    tb = roce_lan()
    tb.engine.tracer = tracer
    result = run_rftp(tb, total_bytes=16 << 20)
    return result.gbps, tb.engine.now, tb.engine.events_processed


def test_tracing_changes_nothing_but_the_records():
    """Hot call sites skip building trace arguments when no tracer is
    attached; attaching one must not move a float or an event."""
    tracer = Tracer()
    assert _traced_rftp(tracer) == _traced_rftp(None)
    messages = {(r.category, r.message) for r in tracer.query()}
    for expected in [
        ("qp", "post_send"),
        ("qp", "complete"),
        ("ctrl", "send"),
        ("credits", "deposit"),
    ]:
        assert expected in messages
