"""The source data plane, private (dedicated QPs) and shared (``use_srq``).

Both kinds keep one list of every data QP ever opened and one set of
per-QP circuit breakers, so a reopened channel is registered exactly
once and a door sees the breakers its link's traffic really trips.
"""

import pytest

from repro.apps.io import CollectingSink, PatternSource
from repro.core import ProtocolConfig, RdmaMiddleware
from repro.sched.broker import RftpDoor
from repro.testbeds import roce_lan
from repro.verbs.qp import QpState

PORT = 4000
MODES = pytest.mark.parametrize("use_srq", [False, True], ids=["dedicated", "pooled"])


def _wire(use_srq):
    tb = roce_lan()
    c = ProtocolConfig(
        block_size=256 * 1024,
        num_channels=2,
        qp_pool_size=2,
        source_blocks=8,
        sink_blocks=8,
        use_srq=use_srq,
    )
    server = RdmaMiddleware(tb.dst, tb.dst_dev, tb.cm, c)
    server.serve(PORT, CollectingSink(tb.dst))
    client = RdmaMiddleware(tb.src, tb.src_dev, tb.cm, c)
    return tb, c, client


def _run(tb, gen):
    proc = tb.engine.process(gen)
    tb.engine.run()
    assert proc.triggered and proc.ok, getattr(proc, "value", "deadlock")
    return proc.value


@MODES
def test_reopened_channel_is_registered_once(use_srq):
    tb, _c, client = _wire(use_srq)

    def driver():
        link = yield client.open_link(tb.dst_dev, PORT)
        assert link.kill_channel(0)
        qp = yield client.reopen_channel(link, tb.dst_dev, PORT)
        return link, qp

    link, new_qp = _run(tb, driver())
    rotation = link.data.qps
    assert len({id(qp) for qp in rotation}) == len(rotation), "QP listed twice"
    rts = sum(1 for qp in rotation if qp.state is QpState.RTS)
    assert link.data.alive_count == rts == 2
    # The plane's list holds every data QP ever opened, once, in
    # creation order: the two originals (one dead) and the reopened one.
    opened = link.plane.qps
    assert len(opened) == 3 and opened[-1] is new_qp
    assert [qp.qp_num for qp in opened] == sorted(qp.qp_num for qp in opened)
    assert opened[0].state is QpState.ERROR


@MODES
def test_door_quarantined_when_every_breaker_is_open(use_srq):
    tb, c, client = _wire(use_srq)
    door = RftpDoor("door-0", client, tb.dst_dev, PORT, PatternSource(tb.src))

    def driver():
        yield door.open()

    _run(tb, driver())
    data = door.link.data
    now = tb.engine.now
    assert not door.channels_quarantined(now)
    for qp in data.qps:
        breaker = data.breaker_lookup(qp.qp_num)
        for _ in range(c.breaker_failures):
            breaker.record_failure(now)
    assert door.channels_quarantined(now)
    # Once the cooldown has passed the channels are probe-able again.
    assert not door.channels_quarantined(now + 60.0)
