"""Verbs-level differential tests for the fluid data path.

Under fluid mode the common SEND and WRITE paths book every stage (NIC
pipeline, PCIe DMA, wire, DMA placement, hardware ACK) as one direct
timer instead of running the stage generators.  Each scenario below — the
happy paths and every error branch — is checked two ways:

- **fluid vs discrete**: ``Engine(use_fluid=True)`` and
  ``Engine(use_fluid=False)`` give bit-for-bit the same completions
  (status and timestamp), hardware and network counters and final clock;
  only the kernel event count may differ.  Mid-flight ``Link.utilization``
  reads agree wherever both modes serialise hop by hop (a fault-armed
  link).  On a chain-booked path fluid mode counts every hop's bytes when
  the whole chain arrives, not as each hop finishes, so mid-flight reads
  there differ by design;
- **flat vs stage generators**: the same fluid run with ``_do_send`` and
  ``_do_write`` swapped for the plain composition of the generator
  primitives (``process_wqe``, ``dma_fetch``, ``transmit``,
  ``dma_place``, ``deliver_latency``) gives the same events, in number
  and timing, and the same mid-flight utilization reads.
"""

from __future__ import annotations

import pytest

from repro.network import back_to_back, wan_path
from repro.verbs import Opcode, QpState, QpType, QueuePair, RecvWR, SendWR, WcStatus
from repro.verbs.errors import RemoteAccessError
from repro.verbs.qp import RNR_RETRY_INFINITE
from repro.verbs.wr import WorkCompletion
from tests.conftest import make_fabric

MiB = 1 << 20
SIZES = [4096, 256 * 1024, MiB, 8192, 64 * 1024, 3 * MiB, 1500, 512 * 1024]
#: Probe instants for mid-flight utilisation reads (odd values, so no
#: probe coincides with a booked completion).
PROBES = [3.7e-6, 41.3e-6, 0.377e-3, 2.113e-3, 5.031e-3, 10.9e-3]


def _write(mr, buf, wr_id, length, opcode=Opcode.RDMA_WRITE, **kw):
    return SendWR(opcode=opcode, length=length, wr_id=wr_id,
                  remote_addr=buf.addr, rkey=mr.rkey, payload=f"p{wr_id}", **kw)


def _send(wr_id, length):
    return SendWR(opcode=Opcode.SEND, length=length, wr_id=wr_id,
                  payload=f"m{wr_id}")


def _later(f, delay, action):
    def proc(env):
        yield env.timeout(delay)
        action()

    f.engine.process(proc(f.engine))


# -- scenarios: each posts work on a fresh fabric, returns the QPs to reap --
def send(f):
    qa, qb = f.qp_pair()
    for i, size in enumerate(SIZES):
        qb.post_recv(RecvWR(length=4 * MiB, wr_id=100 + i))
        qa.post_send(_send(i, size))
    return qa, qb


def write(f):
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=4 * MiB)
    for i, size in enumerate(SIZES):
        qa.post_send(_write(mr, buf, i, size))
    # A second pair contends for the same NICs, buses and wires.
    qc, qd = f.qp_pair()
    for i, size in enumerate(reversed(SIZES)):
        qc.post_send(_write(mr, buf, 50 + i, size))
    return qa, qb, qc, qd


def write_with_imm(f):
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=4 * MiB)
    qb.post_recv(RecvWR(length=0, wr_id=100))
    for i, size in enumerate([MiB, 4096, 64 * 1024]):
        qa.post_send(_write(mr, buf, i, size, Opcode.RDMA_WRITE_WITH_IMM,
                            imm_data=i))
    # The later WRs find no receive WR: RNR, then retry once posted.
    _later(f, 0.7e-3, lambda: qb.post_recv(RecvWR(length=0, wr_id=101)))
    _later(f, 1.9e-3, lambda: qb.post_recv(RecvWR(length=0, wr_id=102)))
    return qa, qb


def rnr_retry(f):
    qa, qb = f.qp_pair()
    qa.post_send(_send(0, 64 * 1024))
    qa.post_send(_send(1, MiB))
    _later(f, 0.5e-3, lambda: qb.post_recv(RecvWR(length=MiB, wr_id=100)))
    _later(f, 1.3e-3, lambda: qb.post_recv(RecvWR(length=MiB, wr_id=101)))
    return qa, qb


def rnr_exhaustion(f):
    qa, qb = f.qp_pair(rnr_retry=2)
    qb.post_recv(RecvWR(length=MiB, wr_id=100))
    for i in range(3):
        qa.post_send(_send(i, 128 * 1024))
    return qa, qb


def short_recv_buffer(f):
    qa, qb = f.qp_pair()
    qb.post_recv(RecvWR(length=4096, wr_id=100))
    qb.post_recv(RecvWR(length=4096, wr_id=101))
    qa.post_send(_send(0, 4096))
    qa.post_send(_send(1, 8192))
    return qa, qb


def bad_rkey(f):
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=MiB)
    qb.post_recv(RecvWR(length=MiB, wr_id=100))
    qa.post_send(_write(mr, buf, 0, 64 * 1024))
    qa.post_send(SendWR(opcode=Opcode.RDMA_WRITE, length=4096, wr_id=1,
                        remote_addr=buf.addr, rkey=0xBAD))
    qa.post_send(_write(mr, buf, 2, 2 * MiB))  # out of bounds
    return qa, qb


def killed_mid_flight(f):
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=4 * MiB)
    qb.post_recv(RecvWR(length=MiB, wr_id=100))
    qa.post_send(_write(mr, buf, 0, 3 * MiB))
    qa.post_send(_write(mr, buf, 1, 4096))
    _later(f, 0.9e-3, qa.kill)
    return qa, qb


def injected_faults(f):
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=4 * MiB)
    qa.fault_injector = lambda wr: wr.wr_id % 3 == 2
    qa.corrupt_injector = lambda wr: "rot" if wr.wr_id % 4 == 1 else None
    for i, size in enumerate(SIZES):
        qa.post_send(_write(mr, buf, i, size))
    return qa, qb


def zero_length(f):
    qa, qb = f.qp_pair()
    _, buf, mr = f.remote_mr(size=MiB)
    qb.post_recv(RecvWR(length=0, wr_id=100))
    qa.post_send(_send(0, 0))
    qa.post_send(_write(mr, buf, 1, 0))
    qa.post_send(_write(mr, buf, 2, 4096))
    return qa, qb


def ud(f):
    qa, qb = f.qp_pair(qp_type=QpType.UD)
    qb.post_recv(RecvWR(length=9000, wr_id=100))
    qb.post_recv(RecvWR(length=9000, wr_id=101))
    for i, size in enumerate([4096, 1500, 8000, 64]):  # the last two drop
        qa.post_send(_send(i, size))
    return qa, qb


def fault_armed_link(f):
    """A fault hook makes the path ineligible for chain booking: fluid
    WRs must fall back to per-hop serialisation with identical timing."""
    calls = []

    def spike(nbytes):
        calls.append(nbytes)
        return 7e-6 if len(calls) % 3 == 0 else 0.0

    f.duplex.forward.links[-1].fault_hook = spike
    qa, qb = send(f)
    qc, qd = write(f)[2:]
    return qa, qb, qc, qd


SCENARIOS = [
    send, write, write_with_imm, rnr_retry, rnr_exhaustion,
    short_recv_buffer, bad_rkey, killed_mid_flight, injected_faults,
    zero_length, ud, fault_armed_link,
]


def _observe(scenario, fluid, topology):
    f = make_fabric(rtt=1e-3, use_fluid=fluid, topology=topology)
    links = f.duplex.forward.links + f.duplex.backward.links
    utilization = []

    def probe(env):
        for when in PROBES:
            yield env.timeout_at(when)
            utilization.append([link.utilization(0.0, env.now) for link in links])

    qps = scenario(f)
    f.engine.process(probe(f.engine))
    f.engine.run()
    completions = [
        (qp.qp_num, wc.wr_id, wc.opcode, wc.status, wc.byte_len, wc.timestamp,
         wc.payload, wc.imm_data)
        for qp in qps
        for cq in (qp.send_cq, qp.recv_cq)
        for wc in cq.poll_nocost(10_000)
    ]
    hosts = (f.a, f.b)
    counters = {
        "wqes_processed": [h.nic.wqes_processed.total for h in hosts],
        "pcie_bytes_moved": [h.pcie.bytes_moved.total for h in hosts],
        "link_bytes_sent": [link.bytes_sent.total for link in links],
        "registry": f.engine.metrics.snapshot(),
    }
    return completions, counters, utilization, f.engine.now, f.engine.events_processed


def _stepwise_send(qp, wr, nic, peer):
    """The SEND path as a composition of the stage generators."""
    yield from nic.process_wqe()
    yield from nic.dma_fetch(wr.length)
    attempts = 0
    while True:
        yield from qp.path.transmit(wr.length)
        if qp.qp_type is QpType.UD:
            peer._deliver_datagram(wr)
            return WcStatus.SUCCESS
        if peer._has_recv():
            break
        qp.rnr_naks.add()
        attempts += 1
        if qp.rnr_retry != RNR_RETRY_INFINITE and attempts > qp.rnr_retry:
            return WcStatus.RNR_RETRY_EXC_ERR
        yield from qp.rpath.deliver_latency()
        yield qp.engine.timeout(qp.rnr_timer)
    rwr = peer._take_recv()
    if wr.length > rwr.length:
        return WcStatus.LOC_LEN_ERR
    yield from peer.device.nic.dma_place(wr.length)
    peer.recv_cq.push(WorkCompletion(
        wr_id=rwr.wr_id, opcode=Opcode.RECV, status=WcStatus.SUCCESS,
        byte_len=wr.length, payload=wr.payload, qp_num=peer.qp_num))
    yield from qp.rpath.deliver_latency()
    return WcStatus.SUCCESS


def _stepwise_write(qp, wr, nic, peer):
    """The WRITE path as a composition of the stage generators."""
    target = peer.pd.lookup_rkey(wr.rkey)
    yield from nic.process_wqe()
    yield from nic.dma_fetch(wr.length)
    yield from qp.path.transmit(wr.length)
    if qp.state is QpState.ERROR:
        return WcStatus.WR_FLUSH_ERR
    if qp.fault_injector is not None and qp.fault_injector(wr):
        yield from qp.rpath.deliver_latency()
        return WcStatus.SIM_FAULT
    try:
        if target is None:
            raise RemoteAccessError(f"unknown rkey {wr.rkey!r}")
        target.check_remote(wr.remote_addr, wr.length, write=True)
    except RemoteAccessError:
        yield from qp.rpath.deliver_latency()
        return WcStatus.REM_ACCESS_ERR
    yield from peer.device.nic.dma_place(wr.length)
    payload = wr.payload
    if qp.corrupt_injector is not None:
        tampered = qp.corrupt_injector(wr)
        if tampered is not None:
            payload = tampered
    target.place(wr.remote_addr, payload)
    if wr.opcode is Opcode.RDMA_WRITE_WITH_IMM:
        if not peer._has_recv():
            qp.rnr_naks.add()
            yield from qp.rpath.deliver_latency()
            yield qp.engine.timeout(qp.rnr_timer)
            return (yield from _stepwise_write(qp, wr, nic, peer))
        rwr = peer._take_recv()
        peer.recv_cq.push(WorkCompletion(
            wr_id=rwr.wr_id, opcode=Opcode.RECV, status=WcStatus.SUCCESS,
            byte_len=wr.length, imm_data=wr.imm_data, qp_num=peer.qp_num))
    yield from qp.rpath.deliver_latency()
    return WcStatus.SUCCESS


TOPOLOGIES = pytest.mark.parametrize(
    "topology", [back_to_back, wan_path], ids=["back_to_back", "wan_path"]
)
EACH_SCENARIO = pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=lambda s: s.__name__
)


@TOPOLOGIES
@EACH_SCENARIO
def test_fluid_matches_discrete_bit_for_bit(scenario, topology):
    wcs_f, counters_f, util_f, now_f, events_f = _observe(scenario, True, topology)
    wcs_d, counters_d, util_d, now_d, events_d = _observe(scenario, False, topology)
    assert wcs_f, "scenario produced no completions"
    assert wcs_f == wcs_d
    assert counters_f == counters_d
    assert now_f == now_d
    assert events_f <= events_d
    if scenario is fault_armed_link:
        assert util_f == util_d


@TOPOLOGIES
@EACH_SCENARIO
def test_flat_path_matches_the_stage_generators(scenario, topology, monkeypatch):
    flat = _observe(scenario, True, topology)
    monkeypatch.setattr(QueuePair, "_do_send", _stepwise_send)
    monkeypatch.setattr(QueuePair, "_do_write", _stepwise_write)
    assert _observe(scenario, True, topology) == flat


def test_mid_flight_reads_see_only_landed_bytes():
    """The flat path adds to ``link.bytes_sent`` when the chain's timer
    fires, not when it is booked: the fluid twin of a counter read taken
    while the WRITE is still on the wire."""
    f = make_fabric(rtt=1e-3, topology=wan_path)
    qa, _ = f.qp_pair()
    _, buf, mr = f.remote_mr(size=MiB)
    qa.post_send(_write(mr, buf, 0, MiB))
    link = f.duplex.forward.links[0]
    seen = []

    def probe(env):
        # The first hop is done by ~0.35 ms; the chain lands at ~1.14 ms.
        for when in (0.9e-3, 1.2e-3):
            yield env.timeout_at(when)
            seen.append(link.bytes_sent.total)

    f.engine.process(probe(f.engine))
    f.engine.run()
    (wc,) = qa.send_cq.poll_nocost()
    assert 1.2e-3 < wc.timestamp
    assert seen == [0, MiB]


def test_registry_carries_the_path_counters():
    """The registry snapshot compared above includes the per-path wire
    and control-datagram totals, so a mis-ordered ACK booking shows."""
    _, counters, _, _, _ = _observe(write, True, wan_path)
    names = {rec["metric"] for rec in counters["registry"]}
    assert {"path.bytes_total", "path.ctrl_datagrams", "link.bytes_sent"} <= names
    ctrl = [rec["value"] for rec in counters["registry"]
            if rec["metric"] == "path.ctrl_datagrams"]
    assert sum(ctrl) == 2 * len(SIZES)  # one hardware ACK per WRITE
