"""Queue pairs: RC and UD transports with faithful completion semantics.

The RC (Reliable Connected) QP implements what the paper's protocol
relies on:

- **Asynchronous depth**: many WRs execute concurrently; ordering is
  preserved only where hardware FIFO stages (NIC WQE pipeline, PCIe bus,
  link) impose it, and *completions* are delivered strictly in post order
  per QP (RC ordering rule).
- **SEND/RECV (channel semantics)**: two-sided; the responder must have
  pre-posted a receive WR or the sender gets an RNR NAK and retries after
  the RNR timer — the exact failure mode whose avoidance motivates the
  middleware's credit scheme.
- **RDMA WRITE (memory semantics)**: one-sided; payload lands in a
  remote, rkey-validated region with no responder CQE (unless WRITE-with-
  immediate is used) and no responder CPU.
- **RDMA READ**: one-sided with a request round-trip, the responder's
  read-engine gap, and at most ``max_ord`` requests outstanding — which
  caps READ throughput at ``ord * block / RTT`` on long paths.
- **UD**: datagrams bounded by path MTU, no acknowledgement, silent drop
  when no receive WR is posted.

CPU cost of *posting* is charged by callers via
:meth:`QueuePair.post_send_cost`-style helpers in the middleware layer;
the QP itself consumes no host CPU (kernel bypass).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, Optional


from repro.sim.resources import Resource
from repro.verbs.errors import (
    MtuExceededError,
    QpStateError,
    QueueFullError,
    RemoteAccessError,
)
from repro.verbs.wr import Opcode, RecvWR, SendWR, WcStatus, WorkCompletion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.fabric import DuplexPath, Path
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.device import Device
    from repro.verbs.pd import ProtectionDomain
    from repro.verbs.srq import SharedReceiveQueue

__all__ = ["QpType", "QpState", "QueuePair", "connect_pair"]

#: Per the InfiniBand spec, an RNR retry count of 7 means "retry forever".
RNR_RETRY_INFINITE = 7


class QpType(enum.Enum):
    RC = "rc"
    UD = "ud"


class QpState(enum.Enum):
    RESET = "reset"
    INIT = "init"
    RTR = "rtr"
    RTS = "rts"
    ERROR = "error"


# The per-WR path compares against these members by identity.  Reading a
# member off its enum class (``WcStatus.SUCCESS``) runs the enum
# metaclass's ``__getattr__`` hook on Python < 3.12, several times the cost
# of a module global, and every WR reads about ten of them.
_RESET, _RTS, _ERROR = QpState.RESET, QpState.RTS, QpState.ERROR
_RC, _UD = QpType.RC, QpType.UD
_SEND, _RECV, _READ = Opcode.SEND, Opcode.RECV, Opcode.RDMA_READ
_WRITE, _WRITE_IMM = Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM
_SUCCESS, _SIM_FAULT = WcStatus.SUCCESS, WcStatus.SIM_FAULT


class QueuePair:
    """One endpoint of an RDMA channel."""

    def __init__(
        self,
        device: "Device",
        qp_num: int,
        pd: "ProtectionDomain",
        send_cq: "CompletionQueue",
        recv_cq: "CompletionQueue",
        qp_type: QpType = QpType.RC,
        max_send_wr: int = 512,
        max_recv_wr: int = 1024,
        max_ord: Optional[int] = None,
        rnr_retry: int = RNR_RETRY_INFINITE,
        rnr_timer: float = 0.12e-3,
        srq: Optional["SharedReceiveQueue"] = None,
    ) -> None:
        if max_send_wr < 1 or max_recv_wr < 1:
            raise ValueError("queue depths must be >= 1")
        if srq is not None and srq.pd is not pd:
            raise QpStateError("SRQ and QP must share a protection domain")
        self.device = device
        self.engine = device.engine
        self.qp_num = qp_num
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qp_type = qp_type
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        self.rnr_retry = rnr_retry
        self.rnr_timer = rnr_timer
        self.state = QpState.INIT

        nic_ord = device.nic.profile.max_ord
        self.max_ord = min(max_ord, nic_ord) if max_ord else nic_ord
        self._ord = Resource(self.engine, capacity=self.max_ord)

        self.peer: Optional["QueuePair"] = None
        self.path: Optional["Path"] = None  # self -> peer
        self.rpath: Optional["Path"] = None  # peer -> self

        #: Shared receive queue; when set, arrivals draw WQEs from it
        #: instead of the per-QP receive queue (which stays unused).
        self.srq = srq
        self._recv_queue: Deque[RecvWR] = deque()
        self._outstanding_sends = 0
        self._ssn = 0  # send sequence number (post order)
        self._next_complete = 0
        self._done: Dict[int, Optional[WorkCompletion]] = {}

        # Registry counters keep the monitor.Counter API (.add/.total/
        # .count); host + qp_num labels make them unique per endpoint
        # (qp_num allocation is per device, one device per host here).
        reg = self.engine.metrics
        labels = {"host": device.host.name, "qp": qp_num}
        self.rnr_naks = reg.counter("qp.rnr_naks", **labels)
        self.ud_drops = reg.counter("qp.ud_drops", **labels)
        self.bytes_sent = reg.counter("qp.bytes_sent", **labels)
        #: Optional fault hook ``(SendWR) -> bool``: return True to fail
        #: the WR with :data:`WcStatus.SIM_FAULT` after it crosses the
        #: wire (payload is discarded; the QP survives).  Testing only.
        self.fault_injector: Optional[object] = None
        #: Optional corruption hook ``(SendWR) -> Optional[payload]``:
        #: return a tampered payload to place it at the target instead of
        #: the WR's own, or None for clean delivery.  Models in-flight bit
        #: rot below the transport's CRC (the WR still *completes*
        #: successfully — only end-to-end checksums can catch it).
        self.corrupt_injector: Optional[object] = None

    # -- wiring ------------------------------------------------------------------
    def attach(self, peer: "QueuePair", duplex: "DuplexPath") -> None:
        """Bind this QP to its peer over a duplex path and move to RTS."""
        if self.state is _ERROR:
            raise QpStateError("cannot attach a QP in ERROR state")
        self.peer = peer
        self.path = duplex.forward
        self.rpath = duplex.backward
        self.state = QpState.RTS

    # -- receive side ---------------------------------------------------------------
    def post_recv(self, wr: RecvWR) -> None:
        """Queue a receive buffer (no timing; CPU cost charged by caller)."""
        if self.srq is not None:
            # Real verbs reject per-QP receives on an SRQ-attached QP;
            # receive provisioning happens once, on the shared queue.
            raise QpStateError("QP uses an SRQ: post receives on the SRQ")
        if self.state in (_RESET, _ERROR):
            raise QpStateError(f"post_recv in state {self.state.value}")
        if len(self._recv_queue) >= self.max_recv_wr:
            raise QueueFullError("receive queue full")
        self._recv_queue.append(wr)

    @property
    def recv_posted(self) -> int:
        """Number of receive WRs currently posted (shared WQEs when an
        SRQ is attached)."""
        if self.srq is not None:
            return self.srq.recv_posted
        return len(self._recv_queue)

    def _has_recv(self) -> bool:
        """Is a receive WQE available for an arriving message?

        Consults the SRQ when attached; counts a dry shared queue on the
        SRQ's accounting.  Pure equivalent of ``bool(self._recv_queue)``
        when no SRQ is attached.
        """
        if self.srq is not None:
            if self.srq.recv_posted:
                return True
            self.srq._note_empty()
            return False
        return bool(self._recv_queue)

    def _take_recv(self) -> RecvWR:
        """Consume the next receive WQE (shared when an SRQ is attached)."""
        if self.srq is not None:
            return self.srq._take()
        return self._recv_queue.popleft()

    # -- send side --------------------------------------------------------------
    @property
    def send_outstanding(self) -> int:
        """Number of send-queue WRs not yet completed."""
        return self._outstanding_sends

    @property
    def send_room(self) -> int:
        """Free send-queue slots."""
        return self.max_send_wr - self._outstanding_sends

    def post_send(self, wr: SendWR) -> None:
        """Post a work request; execution proceeds asynchronously."""
        if self.state is not _RTS:
            raise QpStateError(f"post_send in state {self.state.value}")
        if self._outstanding_sends >= self.max_send_wr:
            raise QueueFullError("send queue full")
        if self.qp_type is _UD:
            assert self.path is not None
            if wr.length > self.path.mtu:
                raise MtuExceededError(
                    f"UD datagram {wr.length} exceeds path MTU {self.path.mtu}"
                )
            if wr.opcode is not _SEND:
                raise QpStateError("UD supports only SEND")
        self._outstanding_sends += 1
        ssn = self._ssn
        self._ssn += 1
        engine = self.engine
        if engine.tracer is not None:
            engine.trace(
                "qp", "post_send",
                qp=self.qp_num, op=wr.opcode.value, wr_id=wr.wr_id, len=wr.length,
            )
        engine.process(self._execute(wr, ssn))

    # -- execution ----------------------------------------------------------------
    def _execute(self, wr: SendWR, ssn: int) -> Generator:
        assert self.peer is not None and self.path is not None
        assert self.rpath is not None
        nic = self.device.nic
        peer = self.peer
        status = _SUCCESS
        try:
            if self.state is _ERROR:
                status = WcStatus.WR_FLUSH_ERR
            elif wr.opcode is _SEND:
                status = yield from self._do_send(wr, nic, peer)
            elif wr.opcode in (_WRITE, _WRITE_IMM):
                status = yield from self._do_write(wr, nic, peer)
            elif wr.opcode is _READ:
                status = yield from self._do_read(wr, nic, peer)
            else:  # pragma: no cover - defensive
                raise QpStateError(f"unsupported opcode {wr.opcode}")
        finally:
            wc = WorkCompletion(
                wr_id=wr.wr_id,
                opcode=wr.opcode,
                status=status,
                byte_len=wr.length,
                qp_num=self.qp_num,
            )
            self._retire(ssn, wc, signaled=wr.signaled)
        if status is _SUCCESS:
            self.bytes_sent.add(wr.length)
        elif status is not _SIM_FAULT:
            # Real RC errors are fatal to the QP; injected transient
            # faults leave it usable so recovery paths can be tested.
            self._enter_error()

    # Under fluid mode the common SEND and WRITE paths ("flat") book each
    # stage themselves (``Nic.book_wqe``, ``PcieBus.book``, ``Path.book``,
    # ``Path.control_wait``) and yield its timer directly instead of
    # running the stage's process generator.  The timers, their order and
    # every float are the ones the generators would produce, and each
    # counter is still added after its timer fires (``Link.utilization``
    # reads ``bytes_sent`` mid-run).  Discrete mode, zero-length WRs, UD,
    # WRITE_WITH_IMM and the error branches run the generators.

    def _do_send(self, wr: SendWR, nic, peer: "QueuePair") -> Generator:
        engine = self.engine
        length = wr.length
        path = self.path
        rpath = self.rpath
        flat = engine.use_fluid and length > 0 and self.qp_type is _RC
        if flat:
            yield engine.timeout_at(nic.book_wqe())
            nic.wqes_processed.add()
            pcie = nic.host.pcie
            yield engine.timeout_at(pcie.book(length))
            pcie.bytes_moved.add(length)
        else:
            yield from nic.process_wqe()
            yield from nic.dma_fetch(length)
        attempts = 0
        while True:
            arrival = path.book(length) if flat else None
            if arrival is None:
                yield from path.transmit(length)
            else:
                if arrival > engine._now:
                    yield engine.timeout_at(arrival)
                path.record_arrival(length)
            if self.qp_type is _UD:
                # Unreliable: local completion as soon as it is on the wire.
                peer._deliver_datagram(wr)
                return _SUCCESS
            if peer._has_recv():
                break
            # Receiver Not Ready: NAK travels back, wait RNR timer, retry.
            self.rnr_naks.add()
            attempts += 1
            if self.rnr_retry != RNR_RETRY_INFINITE and attempts > self.rnr_retry:
                return WcStatus.RNR_RETRY_EXC_ERR
            yield from rpath.deliver_latency()
            yield engine.timeout(self.rnr_timer)
        rwr = peer._take_recv()
        if length > rwr.length:
            return WcStatus.LOC_LEN_ERR
        if flat:
            peer_pcie = peer.device.nic.host.pcie
            yield engine.timeout_at(peer_pcie.book(length))
            peer_pcie.bytes_moved.add(length)
        else:
            yield from peer.device.nic.dma_place(length)
        peer.recv_cq.push(
            WorkCompletion(
                wr_id=rwr.wr_id,
                opcode=_RECV,
                status=_SUCCESS,
                byte_len=length,
                payload=wr.payload,
                qp_num=peer.qp_num,
            )
        )
        # Hardware ACK.
        if flat:
            wait = rpath.control_wait()
            if wait > 0:
                yield engine.timeout(wait)
            rpath.ctrl_datagrams.add()
        else:
            yield from rpath.deliver_latency()
        return _SUCCESS

    def _do_write(self, wr: SendWR, nic, peer: "QueuePair") -> Generator:
        target = peer.pd.lookup_rkey(wr.rkey)
        engine = self.engine
        length = wr.length
        path = self.path
        rpath = self.rpath
        flat = engine.use_fluid and length > 0 and wr.opcode is _WRITE
        if flat:
            yield engine.timeout_at(nic.book_wqe())
            nic.wqes_processed.add()
            pcie = nic.host.pcie
            yield engine.timeout_at(pcie.book(length))
            pcie.bytes_moved.add(length)
        else:
            yield from nic.process_wqe()
            yield from nic.dma_fetch(length)
        arrival = path.book(length) if flat else None
        if arrival is None:
            yield from path.transmit(length)
        else:
            if arrival > engine._now:
                yield engine.timeout_at(arrival)
            path.record_arrival(length)
        if self.state is _ERROR:
            # The QP was killed while this WR was on the wire; the write
            # never lands and the WR flushes.
            return WcStatus.WR_FLUSH_ERR
        if self.fault_injector is not None and self.fault_injector(wr):
            yield from rpath.deliver_latency()  # NAK comes back
            return _SIM_FAULT
        try:
            if target is None:
                raise RemoteAccessError(f"unknown rkey {wr.rkey!r}")
            target.check_remote(wr.remote_addr, length, write=True)
        except RemoteAccessError:
            yield from rpath.deliver_latency()  # NAK
            return WcStatus.REM_ACCESS_ERR
        if flat:
            peer_pcie = peer.device.nic.host.pcie
            yield engine.timeout_at(peer_pcie.book(length))
            peer_pcie.bytes_moved.add(length)
        else:
            yield from peer.device.nic.dma_place(length)
        payload = wr.payload
        if self.corrupt_injector is not None:
            tampered = self.corrupt_injector(wr)
            if tampered is not None:
                payload = tampered
        target.place(wr.remote_addr, payload)
        if wr.opcode is _WRITE_IMM:
            if not peer._has_recv():
                # Immediate data consumes a receive WR; RNR applies.
                self.rnr_naks.add()
                yield from rpath.deliver_latency()
                yield engine.timeout(self.rnr_timer)
                return (yield from self._do_write(wr, nic, peer))
            rwr = peer._take_recv()
            peer.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=_RECV,
                    status=_SUCCESS,
                    byte_len=length,
                    imm_data=wr.imm_data,
                    qp_num=peer.qp_num,
                )
            )
        # Hardware ACK.
        if flat:
            wait = rpath.control_wait()
            if wait > 0:
                yield engine.timeout(wait)
            rpath.ctrl_datagrams.add()
        else:
            yield from rpath.deliver_latency()
        return _SUCCESS

    def _do_read(self, wr: SendWR, nic, peer: "QueuePair") -> Generator:
        source = peer.pd.lookup_rkey(wr.rkey)
        yield from nic.process_wqe()
        yield self._ord.request()  # outstanding-read limit (ORD)
        try:
            yield from self.path.deliver_latency()  # READ request packet
            try:
                if source is None:
                    raise RemoteAccessError(f"unknown rkey {wr.rkey!r}")
                source.check_remote(wr.remote_addr, wr.length, write=False)
            except RemoteAccessError:
                yield from self.rpath.deliver_latency()
                return WcStatus.REM_ACCESS_ERR
            peer_nic = peer.device.nic
            yield from peer_nic.serve_read(wr.length)
            yield from self.rpath.transmit(wr.length)
            yield from nic.dma_place(wr.length)
            wr.payload = source.fetch(wr.remote_addr)
            return _SUCCESS
        finally:
            self._ord.release()

    # -- UD delivery -----------------------------------------------------------------
    def _deliver_datagram(self, wr: SendWR) -> None:
        if not self._has_recv():
            self.ud_drops.add()
            return
        rwr = self._take_recv()
        self.recv_cq.push(
            WorkCompletion(
                wr_id=rwr.wr_id,
                opcode=_RECV,
                status=_SUCCESS,
                byte_len=wr.length,
                payload=wr.payload,
                qp_num=self.qp_num,
            )
        )

    # -- completion ordering ------------------------------------------------------------
    def _retire(self, ssn: int, wc: WorkCompletion, signaled: bool) -> None:
        if self.engine.tracer is not None:
            self.engine.trace(
                "qp", "complete",
                qp=self.qp_num, wr_id=wc.wr_id, status=wc.status.value,
            )
        self._done[ssn] = wc if signaled else None
        while self._next_complete in self._done:
            pending = self._done.pop(self._next_complete)
            self._next_complete += 1
            self._outstanding_sends -= 1
            if pending is not None:
                self.send_cq.push(pending)

    def _enter_error(self) -> None:
        if self.state is _ERROR:
            return
        self.state = QpState.ERROR
        # Flush posted receives.  Shared WQEs are deliberately *not*
        # flushed: an SRQ outlives any one attached QP and keeps serving
        # the survivors (matching ibv_srq semantics).
        while self._recv_queue:
            rwr = self._recv_queue.popleft()
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    opcode=_RECV,
                    status=WcStatus.WR_FLUSH_ERR,
                    qp_num=self.qp_num,
                )
            )

    def kill(self) -> None:
        """Force the QP into ERROR (injected channel death).

        In-flight WRs flush with WR_FLUSH_ERR instead of landing, new
        posts are rejected, and posted receives are flushed — the same
        observable behaviour as a NIC port or cable failure on this
        channel.  Unlike :meth:`close` the QP stays in ERROR so failover
        logic can observe the state.
        """
        self._enter_error()

    def close(self) -> None:
        """Tear the QP down (flushes receives)."""
        self._enter_error()
        self.state = QpState.RESET

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<QP {self.qp_num} {self.qp_type.value} {self.state.value} "
            f"out={self._outstanding_sends}>"
        )


def connect_pair(qp_a: QueuePair, qp_b: QueuePair, duplex: "DuplexPath") -> None:
    """Wire two QPs together over a duplex path (both become RTS)."""
    if qp_a.qp_type is not qp_b.qp_type:
        raise QpStateError("QP types must match")
    qp_a.attach(qp_b, duplex)
    qp_b.attach(qp_a, duplex.reversed())
