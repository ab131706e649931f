"""Channel wrappers: the control QP and the parallel data QPs.

The control channel runs SEND/RECV with a pre-posted receive ring (sized
so a healthy run never draws an RNR NAK); bulk payload goes over one or
more data QPs as RDMA WRITE.  All verbs-call CPU costs are charged to the
calling thread here, in one place.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.core.health import ChannelBreaker
from repro.core.messages import ControlMessage, CTRL_MSG_BYTES, DataBlockWire
from repro.verbs.cq import CompletionChannel
from repro.verbs.errors import QpStateError
from repro.verbs.qp import QpState
from repro.verbs.wr import Opcode, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blocks import SourceBlock
    from repro.core.config import ProtocolConfig
    from repro.core.credits import Credit
    from repro.core.messages import BlockHeader
    from repro.core.pool import BlockPool, ResourcePool
    from repro.hardware.cpu import CpuThread
    from repro.hardware.host import Host
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.qp import QueuePair

__all__ = [
    "ControlChannel",
    "DataChannels",
    "HostChannelPool",
    "NoLiveChannelError",
]


class NoLiveChannelError(RuntimeError):
    """Every data QP is in ERROR state; nothing can carry a WRITE.

    Callers translate this into the typed
    :class:`~repro.core.errors.DataChannelsLost` session abort."""


class ControlChannel:
    """SEND/RECV messaging over the dedicated control QP."""

    def __init__(self, qp: "QueuePair", recv_depth: int = 128) -> None:
        self.qp = qp
        self.engine = qp.engine
        self.profile = qp.device.arch_profile
        self.recv_depth = recv_depth
        self._recv_channel = CompletionChannel(qp.recv_cq)
        reg = self.engine.metrics
        labels = {"qp": qp.qp_num, "i": reg.sequence("ctrl_channel")}
        self._m_sent = reg.counter("ctrl.sent", **labels)
        self._m_received = reg.counter("ctrl.received", **labels)
        self._m_dropped = reg.counter("ctrl.dropped", **labels)
        self._m_delayed = reg.counter("ctrl.delayed", **labels)
        #: Optional fault hook ``(msg) -> None | "drop" | float``: None for
        #: clean delivery, "drop" to lose the message after the CPU cost is
        #: paid, a float to delay posting by that many seconds.
        self.fault_hook = None
        # Pre-post the receive ring (setup time, not charged).
        for i in range(recv_depth):
            qp.post_recv(RecvWR(length=CTRL_MSG_BYTES, wr_id=i))

    # -- backwards-compat stat views ------------------------------------------
    @property
    def sent(self) -> int:
        return int(self._m_sent.total)

    @property
    def received(self) -> int:
        return int(self._m_received.total)

    @property
    def dropped(self) -> int:
        return int(self._m_dropped.total)

    @property
    def delayed(self) -> int:
        return int(self._m_delayed.total)

    def send(self, thread: "CpuThread", msg: ControlMessage) -> Generator:
        """Post a control message (unsignalled SEND; fire-and-forget)."""
        yield thread.exec(self.profile.post_send_seconds)
        if self.fault_hook is not None:
            verdict = self.fault_hook(msg)
            if verdict == "drop":
                # CPU cost was paid, the message never reaches the wire —
                # models loss the reliable QP cannot see (e.g. a stale
                # route eating the datagram before the NIC retransmit
                # window, or an injected switch fault).
                self._m_dropped.add()
                self.engine.trace(
                    "ctrl", "drop", type=msg.type.value, session=msg.session_id
                )
                self._m_sent.add()
                return
            if verdict is not None and verdict > 0:
                # Delay inline (before posting) so FIFO ordering on the QP
                # is preserved — only this message's departure slips.
                self._m_delayed.add()
                yield self.engine.timeout(verdict)
        if self.engine.tracer is not None:
            self.engine.trace(
                "ctrl", "send", type=msg.type.value, session=msg.session_id
            )
        self.qp.post_send(
            SendWR(
                opcode=Opcode.SEND,
                length=msg.wire_bytes,
                payload=msg,
                signaled=False,
            )
        )
        self._m_sent.add()

    def receive(self, thread: "CpuThread") -> Generator:
        """Block until control messages arrive; returns the batch.

        Charges the interrupt wakeup, per-CQE poll cost, and the
        re-posting of consumed receive buffers.
        """
        yield self._recv_channel.wait(thread)
        wcs = yield self.qp.recv_cq.poll(thread, max_entries=self.recv_depth)
        messages: List[ControlMessage] = []
        for wc in wcs:
            if not wc.ok:
                continue
            messages.append(wc.payload)
            # Recycle the receive buffer.
            yield thread.exec(self.profile.post_recv_seconds)
            self.qp.post_recv(RecvWR(length=CTRL_MSG_BYTES, wr_id=wc.wr_id))
        if messages:
            self._m_received.add(len(messages))
        return messages


class DataChannels:
    """The parallel data-plane QPs (§IV-A: multi-channel transfer)."""

    #: Poll interval while the chosen QP's send queue is full.
    _BACKOFF = 2e-6

    def __init__(self, qps: List["QueuePair"]) -> None:
        if not qps:
            raise ValueError("need at least one data QP")
        self.qps = qps
        self.engine = qps[0].engine
        self.profile = qps[0].device.arch_profile
        self._rr = 0
        reg = self.engine.metrics
        self._idx = reg.sequence("data_channels")
        self._m_posted = reg.counter("data.blocks_posted", i=self._idx)
        self._m_detached = reg.counter("data.qps_detached", i=self._idx)
        #: per-QP posted-block counters, bound up front (and in
        #: :meth:`adopt` for QPs re-established after failover) so the
        #: post path never touches the registry.
        self._m_posted_by_qp = {}
        for qp in qps:
            self._bind_qp_counter(qp.qp_num)
        reg.gauge_fn("data.alive_qps", lambda: self.alive_count, i=self._idx)
        #: QPs removed from the rotation after entering ERROR (failover).
        self.dead: List["QueuePair"] = []
        #: Optional circuit-breaker lookup ``qp_num -> ChannelBreaker``;
        #: when set, :meth:`_pick` skips quarantined (OPEN) channels.  A
        #: QP that is RTS but quarantined does NOT count as lost: if the
        #: breakers would reject every live QP, the least-recently
        #: tripped one is force-admitted instead, so NoLiveChannelError
        #: keeps its exact meaning (no RTS QP at all).
        self.breaker_lookup = None

    # -- backwards-compat stat views ------------------------------------------
    @property
    def blocks_posted(self) -> int:
        return int(self._m_posted.total)

    @property
    def detached(self) -> int:
        return int(self._m_detached.total)

    def __len__(self) -> int:
        return len(self.qps)

    @property
    def alive_count(self) -> int:
        """Channels still able to carry WRITEs."""
        return sum(1 for qp in self.qps if qp.state is QpState.RTS)

    def detach(self, qp_num: int) -> Optional["QueuePair"]:
        """Drop a dead QP from the send rotation (failover bookkeeping).

        Only a QP that has actually left RTS is detached — a WR_FLUSH_ERR
        completion always implies that, but the guard keeps a stale or
        duplicate flush from evicting a healthy channel.  Returns the
        detached QP, or ``None`` if nothing was removed.
        """
        for i, qp in enumerate(self.qps):
            if qp.qp_num != qp_num:
                continue
            if qp.state is QpState.RTS:
                return None
            del self.qps[i]
            self.dead.append(qp)
            self._m_detached.add()
            self.engine.trace("data", "detach", qp=qp_num, alive=self.alive_count)
            return qp
        return None

    def _bind_qp_counter(self, qp_num: int) -> None:
        """Bind the per-QP posted-block counter once, at membership time."""
        if qp_num not in self._m_posted_by_qp:
            self._m_posted_by_qp[qp_num] = self.engine.metrics.counter(
                "data.qp_blocks_posted", i=self._idx, qp=qp_num
            )

    def adopt(self, qp: "QueuePair") -> None:
        """Add a (re-established) QP to the send rotation."""
        self.qps.append(qp)
        self._bind_qp_counter(qp.qp_num)
        self.engine.trace("data", "adopt", qp=qp.qp_num, alive=self.alive_count)

    def _pick(self) -> "QueuePair":
        """Least-loaded live QP, round-robin tie-break.

        Honours the circuit breakers when wired (quarantined channels
        are skipped while an admissible one exists).  Raises
        :class:`NoLiveChannelError` when every QP is dead."""
        best: Optional["QueuePair"] = None
        fallback: Optional["QueuePair"] = None  # live but quarantined
        fallback_until = float("inf")
        now = self.engine.now
        n = len(self.qps)
        for i in range(n):
            qp = self.qps[(self._rr + i) % n]
            if qp.state is not QpState.RTS:
                continue
            breaker = (
                self.breaker_lookup(qp.qp_num)
                if self.breaker_lookup is not None
                else None
            )
            if breaker is not None and not breaker.peek_admit(now):
                if breaker.open_until < fallback_until:
                    fallback, fallback_until = qp, breaker.open_until
                continue
            if best is None or qp.send_outstanding < best.send_outstanding:
                best = qp
        self._rr = (self._rr + 1) % n
        if best is None:
            best = fallback  # all live QPs quarantined: force-admit one
        if best is None:
            raise NoLiveChannelError("all data QPs are in ERROR state")
        if self.breaker_lookup is not None:
            breaker = self.breaker_lookup(best.qp_num)
            if breaker is not None:
                breaker.note_post(now)
        return best

    def post_write(
        self,
        thread: "CpuThread",
        block: "SourceBlock",
        credit: "Credit",
        header: "BlockHeader",
        wr_id: Optional[int] = None,
    ) -> Generator:
        """Post one block as an RDMA WRITE against the credit's region.

        ``wr_id`` defaults to the header's sequence number; multi-session
        links pass a link-unique id so completions route unambiguously.
        """
        while True:
            qp = self._pick()
            while qp.send_room == 0 and qp.state is QpState.RTS:
                yield self.engine.timeout(self._BACKOFF)
            yield thread.exec(self.profile.post_send_seconds)
            wire = DataBlockWire(
                header=header, payload=block.payload, block_id=credit.block_id
            )
            try:
                qp.post_send(
                    SendWR(
                        opcode=Opcode.RDMA_WRITE,
                        length=header.wire_bytes,
                        wr_id=header.seq if wr_id is None else wr_id,
                        remote_addr=credit.addr,
                        rkey=credit.rkey,
                        payload=wire,
                    )
                )
            except QpStateError:
                # The chosen QP died between pick and post; fail over to a
                # surviving channel (or let _pick raise when none remain).
                continue
            break
        self._m_posted.add()
        self._m_posted_by_qp[qp.qp_num].add()

    def post_send_block(
        self,
        thread: "CpuThread",
        block: "SourceBlock",
        header: "BlockHeader",
        wr_id: int,
    ) -> Generator:
        """Post one block as a two-sided SEND — the *eager* transport.

        No credit precedes this: the receiver's shared receive queue
        supplies the landing buffer, so a small block costs one shared
        WQE instead of an MR exchange plus a dedicated region.  An empty
        SRQ shows up as RNR NAK + retry inside the QP, exactly the
        backpressure the rendezvous path expresses through credits.
        """
        while True:
            qp = self._pick()
            while qp.send_room == 0 and qp.state is QpState.RTS:
                yield self.engine.timeout(self._BACKOFF)
            yield thread.exec(self.profile.post_send_seconds)
            wire = DataBlockWire(header=header, payload=block.payload)
            try:
                qp.post_send(
                    SendWR(
                        opcode=Opcode.SEND,
                        length=header.wire_bytes,
                        wr_id=wr_id,
                        payload=wire,
                    )
                )
            except QpStateError:
                # The chosen QP died between pick and post; fail over to a
                # surviving channel (or let _pick raise when none remain).
                continue
            break
        self._m_posted.add()
        self._m_posted_by_qp[qp.qp_num].add()

    @property
    def outstanding(self) -> int:
        # Detached QPs still drain flush completions; count them so the
        # chaos audit's "no stranded WRs" check covers failover too.
        return sum(qp.send_outstanding for qp in self.qps) + sum(
            qp.send_outstanding for qp in self.dead
        )


class HostChannelPool:
    """Shared data-plane for every link to one ``(host, port)`` peer.

    In srq mode (``config.use_srq``) the middleware opens the data-plane
    *once per peer host*: ``qp_pool_size`` QPs sharing one send CQ, one
    registered source block pool, and a :class:`~repro.core.pool.ResourcePool`
    of session leases.  Links lease a slot instead of creating
    ``num_channels`` dedicated QPs and a dedicated pool each — per-host
    pinned memory and QP count stay constant as session concurrency
    grows, which is the whole point of the SRQ design.

    The pool owns the one :class:`CompletionChannel` on the shared send
    CQ and runs the completion dispatcher: every posted WR is registered
    in :attr:`routes` (wr_id → owning link) and its completion is routed
    to that link's inbox.  Circuit breakers are pool-level too — a
    flapping shared QP is quarantined for every rider at once.
    """

    def __init__(
        self,
        host: "Host",
        data: DataChannels,
        send_cq: "CompletionQueue",
        block_pool: "BlockPool",
        sessions: "ResourcePool",
        config: "ProtocolConfig",
    ) -> None:
        self.host = host
        self.engine = host.engine
        self.data = data
        self.send_cq = send_cq
        self.cc = CompletionChannel(send_cq)
        self.block_pool = block_pool
        self.sessions = sessions
        self.config = config
        #: One wr_id space for every link riding the shared send CQ.
        self.wr_ids = itertools.count()
        #: wr_id -> owning SourceLink; popped as completions are routed.
        #: A link that abandons a post before the WR reaches the wire
        #: (no-live-channel cleanup) pops its own entry.
        self.routes: Dict[int, object] = {}
        self._breakers: Dict[int, ChannelBreaker] = {}
        self._started = False

    def breaker_for(self, qp_num: int) -> ChannelBreaker:
        """Pool-level circuit breakers: quarantine history is shared by
        every link (cooldown uses the static floor — the pool has no
        single RTT estimator to adapt with)."""
        breaker = self._breakers.get(qp_num)
        if breaker is None:
            breaker = ChannelBreaker(
                qp_num,
                self.config.breaker_failures,
                lambda: self.config.breaker_cooldown_min,
            )
            self._breakers[qp_num] = breaker
        return breaker

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.data.breaker_lookup = self.breaker_for
        self.engine.process(self._dispatch_thread())

    def _dispatch_thread(self) -> Generator:
        thread = self.host.thread("qp-pool", "app")
        while True:
            yield self.cc.wait(thread)
            wcs = yield self.send_cq.poll(thread, max_entries=64)
            for wc in wcs:
                link = self.routes.pop(wc.wr_id, None)
                if link is None:
                    continue  # owner withdrew the post before it flew
                yield link._wc_inbox.put(wc)
