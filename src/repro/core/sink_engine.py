"""The data-sink protocol engine (receiver side of §IV).

The sink is *not* on the data path: payload lands in its registered
blocks via one-sided RDMA WRITE with zero sink CPU.  Its threads only:

- handle control messages — negotiate parameters, turn BLOCK_DONE
  notifications into READY blocks (via the reassembly buffer), and grant
  credits per the proactive-feedback policy;
- consume READY blocks in order (``get_ready_blk``), hand payload to the
  application's data sink (file system, /dev/null), and recycle blocks
  (``put_free_blk``), triggering fresh grants.

Recovery: duplicate negotiation requests are answered idempotently (a
retransmitting source must converge on one session, one grant), completed
sessions have their bookkeeping retired so the dicts stay bounded, and a
lazily-running garbage collector reclaims sessions idle past
``session_idle_timeout`` — freeing parked reassembly blocks and, once no
live session shares the pool, revoking credits a dead source can never
honour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.core.blocks import SinkBlock, SinkBlockState
from repro.core.channels import ControlChannel
from repro.core.config import GC_INTERVAL, MARKER_INTERVAL_BLOCKS, ProtocolConfig
from repro.core.credits import Credit, CreditGranter
from repro.core.errors import EndpointCrashed, PeerDead, StaleSessionReclaimed
from repro.core.health import HealthMonitor
from repro.core.messages import ControlMessage, CtrlType, block_checksum
from repro.core.pool import BlockPool
from repro.core.reassembly import ReassemblyBuffer
from repro.sim.events import Event
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.host import Host
    from repro.sim.engine import Engine

__all__ = ["SinkEngine"]


class SinkEngine:
    """Drives the receiving side of transfer sessions on one control
    channel."""

    def __init__(
        self,
        host: "Host",
        ctrl: ControlChannel,
        config: ProtocolConfig,
        data_sink: Any,
        pool_factory,
    ) -> None:
        self.host = host
        self.engine: "Engine" = host.engine
        self.ctrl = ctrl
        self.config = config
        self.data_sink = data_sink
        #: Callable ``(block_size) -> BlockPool[SinkBlock]`` — the pool is
        #: built only once the block size is negotiated.
        self.pool_factory = pool_factory

        self.pool: Optional[BlockPool[SinkBlock]] = None
        self.granter: Optional[CreditGranter] = None
        reg = self.engine.metrics
        self._m_idx = reg.sequence("sink_engine")
        labels = {"sink": self._m_idx}
        self.reassembly = ReassemblyBuffer(registry=reg, sink=self._m_idx)
        self._ready: Store = Store(self.engine)
        self._expected_bytes: Dict[int, int] = {}
        self._consumed_bytes: Dict[int, int] = {}
        self.blocks_delivered = reg.counter("sink.blocks_delivered", **labels)
        self.sessions_reclaimed = reg.counter("sink.sessions_reclaimed", **labels)
        self.stray_messages = reg.counter("sink.stray_messages", **labels)
        self.checksum_mismatches = reg.counter("sink.checksum_mismatches", **labels)
        self.nacks_sent = reg.counter("sink.nacks_sent", **labels)
        self.markers_sent = reg.counter("sink.markers_sent", **labels)
        self.resumes = reg.counter("sink.resumes", **labels)
        self.crashes = reg.counter("sink.crashes", **labels)
        reg.gauge_fn("sink.ready_blocks", lambda: len(self._ready.items), **labels)
        reg.gauge_fn(
            "sink.active_sessions", lambda: len(self._expected_bytes), **labels
        )
        self._dataset_done_total: Dict[int, int] = {}
        #: Sessions on the eager (SEND/RECV) transport: payload arrives
        #: through the shared receive queue, so no credits are granted
        #: for them — freeing their blocks must not advertise regions
        #: nothing will ever write into.
        self._eager_sessions: set = set()
        #: Succeeds per session once everything is consumed and acked;
        #: fails (defused) with :class:`StaleSessionReclaimed` when the GC
        #: reaps the session.
        self.session_done: Dict[int, Event] = {}
        #: session id -> total bytes, for sessions already acked and
        #: retired — lets a retransmitted DATASET_DONE be re-acked
        #: idempotently after cleanup.
        self._acked: Dict[int, int] = {}
        #: Ordered set (insertion-ordered dict, values unused) of retired
        #: session ids — finished or reclaimed, no longer in
        #: ``_expected_bytes``.  Bounds the per-session history the sink
        #: keeps after retirement: beyond ``config.sink_session_history``
        #: the oldest retired session's leftovers (_acked,
        #: _consumed_bytes, session_done, marker anchors, accounting
        #: epoch) are evicted.  A broker multiplexing thousands of short
        #: sessions over one link would otherwise grow these dicts
        #: without bound.
        self._retired: Dict[int, None] = {}
        #: session id -> last control/consumption activity timestamp.
        self._last_activity: Dict[int, float] = {}
        self._consumers_started = False
        self._gc_running = False
        # -- integrity / restart-marker / resume state --------------------------------
        #: session id -> contiguous *written* prefix, in blocks: everything
        #: below it has hit the application sink, so a resumed session
        #: re-attaches here.  Recoverable from the data file itself, it
        #: survives both GC reclaim and a sink crash.
        self._marker_upto: Dict[int, int] = {}
        #: session id -> seqs written above the contiguous prefix (the
        #: small out-of-order window of the parallel writer threads).
        self._marker_pending: Dict[int, set] = {}
        #: session id -> last BLOCK_MARKER value sent to the source.  The
        #: marker wire messages track the *delivered* prefix
        #: (``ReassemblyBuffer.next_seq``): delivery implies the checksum
        #: verified, which is all the source needs to release its repair
        #: copies — waiting for the writer threads too would hold its pool
        #: blocks hostage to sink disk latency.
        self._marker_sent: Dict[int, int] = {}
        #: session id -> marker cadence the source negotiated (bounded by
        #: the *source* pool so repair copies can't starve its readers).
        self._marker_interval: Dict[int, int] = {}
        #: session id -> (marker, credits) of the last SESSION_RESUME_REP,
        #: so a retransmitted resume request is answered idempotently.
        self._resume_grants: Dict[int, tuple] = {}
        # -- adaptive health / degraded-mode state -------------------------------------
        #: Peer liveness + RTT estimation (samples come from the PONGs to
        #: our own idle-time PINGs; the sink is otherwise a pure responder).
        self.health = HealthMonitor(self.engine, config)
        #: Optional zero-arg hook consulted on TRANSPORT_FALLBACK_REQ;
        #: returning True denies the fallback (fault injection).
        self.fallback_deny_hook = None
        #: session id -> live TcpBlockStream carrying the degraded session.
        self._fallback_streams: Dict[int, Any] = {}
        #: session id -> next expected seq recorded when the TCP consumer
        #: hit the EOF sentinel (the TRANSPORT_RESTORE anchor).
        self._fallback_done: Dict[int, int] = {}
        #: session id -> resume_seq of the accepted fallback, for
        #: idempotent replies to retransmitted TRANSPORT_FALLBACK_REQs.
        self._fallback_resume_seq: Dict[int, int] = {}
        #: session id -> (seq, credits) of the last ready
        #: TRANSPORT_RESTORE_REP, answered idempotently like resumes.
        self._restore_grants: Dict[int, tuple] = {}
        #: session id -> generation of the consumed-bytes accounting.
        #: Bumped whenever ``_consumed_bytes`` is re-anchored to the
        #: marker (fallback accept, resume, reclaim): a writer thread
        #: whose ``data_sink.write`` straddled the re-anchor must NOT
        #: apply its accounting — its block sits below the new marker
        #: and will be re-delivered, so counting it twice would retire
        #: the session one block early.
        self._accounting_epoch: Dict[int, int] = {}
        self._last_ping_at = float("-inf")
        self._m_pings = reg.counter("sink.pings", **labels)
        self._m_peer_dead = reg.counter("sink.peer_dead", **labels)
        self.fallback_sessions = reg.counter("sink.fallback_sessions", **labels)
        self.fallback_blocks = reg.counter("sink.fallback_blocks", **labels)

    # -- public -----------------------------------------------------------------
    def start(self) -> None:
        """Launch the control-handling thread."""
        self.engine.process(self._control_thread())

    def consumed_bytes(self, session_id: int) -> int:
        return self._consumed_bytes.get(session_id, 0)

    def active_sessions(self) -> int:
        return len(self._expected_bytes)

    # -- control plane -------------------------------------------------------------
    def _control_thread(self) -> Generator:
        thread = self.host.thread("snk-ctrl", "app")
        while True:
            msgs = yield from self.ctrl.receive(thread)
            for msg in msgs:
                self.health.heard()
                if msg.session_id in self._expected_bytes:
                    self._last_activity[msg.session_id] = self.engine.now
                yield from self._dispatch(thread, msg)

    def _dispatch(self, thread, msg: ControlMessage) -> Generator:
        if msg.type is CtrlType.BLOCK_SIZE_REQ:
            accept = msg.data >= 4096
            if self.pool is not None and msg.data != self.pool.block_size:
                # The registered pool is sized for one block size; a later
                # session must negotiate the same one (or a new link).
                accept = False
            if accept and self.pool is None:
                self.pool = self.pool_factory(msg.data)
                self.granter = CreditGranter(
                    self.pool,
                    grant_ratio=self.config.credit_grant_ratio,
                    proactive=self.config.proactive_credits,
                )
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.BLOCK_SIZE_REP, msg.session_id, accept),
            )
        elif msg.type is CtrlType.CHANNELS_REQ:
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.CHANNELS_REP, msg.session_id, True),
            )
        elif msg.type is CtrlType.SESSION_REQ:
            assert self.granter is not None, "block size not negotiated"
            # Srq-mode sources append the eager-transport flag; the
            # two-element shape is the unchanged rendezvous request.
            if len(msg.data) == 3:
                total_bytes, marker_interval, eager = msg.data
            else:
                (total_bytes, marker_interval), eager = msg.data, False
            if msg.session_id in self._expected_bytes:
                # Duplicate from a retransmitting source: the session (and
                # its initial grant) already exist — accept again but grant
                # nothing, or the pool would leak one credit per retry.
                yield from self.ctrl.send(
                    thread,
                    ControlMessage(CtrlType.SESSION_REP, msg.session_id, (True, ())),
                )
                return
            # A finished session's id may be legitimately reused.
            self._acked.pop(msg.session_id, None)
            # Marker-epoch guard: a *fresh* incarnation must not inherit
            # the restart marker a reclaimed predecessor left behind
            # (kept only to anchor SESSION_RESUME).  A stale
            # ``_marker_upto`` would overstate this incarnation's durable
            # prefix — a later resume would skip blocks it never wrote —
            # and a stale ``_marker_sent`` would stall marker emission.
            if (
                msg.session_id in self._marker_upto
                or msg.session_id in self._marker_sent
            ):
                self._marker_upto.pop(msg.session_id, None)
                self._marker_sent.pop(msg.session_id, None)
                self._marker_pending.pop(msg.session_id, None)
                self._accounting_epoch[msg.session_id] = (
                    self._accounting_epoch.get(msg.session_id, 0) + 1
                )
            self._retired.pop(msg.session_id, None)
            self._expected_bytes[msg.session_id] = total_bytes
            self._marker_interval[msg.session_id] = marker_interval
            self._consumed_bytes[msg.session_id] = 0
            self._last_activity[msg.session_id] = self.engine.now
            self.session_done[msg.session_id] = Event(self.engine)
            if not self._consumers_started:
                self._consumers_started = True
                for i in range(self.config.writer_threads):
                    self.engine.process(self._consumer_thread(i))
            if not self._gc_running:
                self._gc_running = True
                self.engine.process(self._gc_thread())
            if eager:
                # Eager sessions land via the shared receive queue; there
                # is no region to advertise, so the grant is empty.
                self._eager_sessions.add(msg.session_id)
                yield from self.ctrl.send(
                    thread,
                    ControlMessage(CtrlType.SESSION_REP, msg.session_id, (True, ())),
                )
                return
            self._eager_sessions.discard(msg.session_id)  # id reuse
            initial = tuple(self.granter.initial_grant(self.config.initial_credits))
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.SESSION_REP, msg.session_id, (True, initial)),
            )
        elif msg.type is CtrlType.BLOCK_DONE:
            if msg.session_id not in self._expected_bytes:
                # In flight when its session was reclaimed (or a replay).
                # The block's region may since have been refunded to a live
                # session or revoked — not ours to touch.
                self.stray_messages.add()
                return
            yield from self._on_block_done(thread, msg)
        elif msg.type is CtrlType.MR_INFO_REQ:
            # Credits are link-level: answer as long as *any* session is
            # live, whichever session id the starved sender stamped on it.
            if self.granter is not None and self._expected_bytes:
                granted = self.granter.on_request()
                if granted:
                    yield from self._send_credits(thread, msg.session_id, granted)
            else:
                self.stray_messages.add()
        elif msg.type is CtrlType.PING:
            # Link-level liveness (session id 0): echo the nonce so the
            # peer's estimator gets an unambiguous sample.
            yield from self.ctrl.send(
                thread, ControlMessage(CtrlType.PONG, msg.session_id, msg.data)
            )
        elif msg.type is CtrlType.PONG:
            self.health.on_pong(msg.data)
        elif msg.type is CtrlType.TRANSPORT_FALLBACK_REQ:
            yield from self._on_transport_fallback(thread, msg)
        elif msg.type is CtrlType.TRANSPORT_RESTORE_REQ:
            yield from self._on_transport_restore(thread, msg)
        elif msg.type is CtrlType.SESSION_RESUME_REQ:
            yield from self._on_session_resume(thread, msg)
        elif msg.type is CtrlType.DATASET_DONE:
            if msg.session_id in self._acked:
                # The original ACK was sent (and possibly lost) after the
                # session was retired: re-ack idempotently.
                yield from self.ctrl.send(
                    thread,
                    ControlMessage(
                        CtrlType.DATASET_DONE_ACK,
                        msg.session_id,
                        self._acked[msg.session_id],
                    ),
                )
            elif msg.session_id in self._expected_bytes:
                self._dataset_done_total[msg.session_id] = msg.data
                yield from self._maybe_finish(thread, msg.session_id)
            else:
                self.stray_messages.add()
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"sink got unexpected control message {msg.type}")

    def _on_block_done(self, thread, msg: ControlMessage) -> Generator:
        assert self.pool is not None and self.granter is not None
        block_id, header = msg.data
        block = self.pool.by_id(block_id)
        # Extract what the one-sided WRITE deposited in the region.
        wire = block.mr.take(block.mr.buffer.addr)
        payload = wire.payload if wire is not None else None
        if self.config.checksum_blocks and header.checksum != block_checksum(payload):
            # The transport's CRC passed but the end-to-end checksum did
            # not: the region holds garbage.  Withhold the block — it
            # stays WAITING on the same region — and, when repair is on,
            # ask the source to re-send its still-WAITING copy into the
            # same credit.  With repair off the session starves and dies
            # with a typed abort instead of delivering corrupt data.
            self.checksum_mismatches.add()
            self.engine.trace(
                "sink", "checksum_mismatch",
                session=header.session_id, seq=header.seq,
            )
            if self.config.block_repair:
                self.nacks_sent.add()
                yield from self.ctrl.send(
                    thread,
                    ControlMessage(
                        CtrlType.BLOCK_NACK,
                        header.session_id,
                        (header.seq, Credit.for_block(block)),
                    ),
                )
            return
        eager = header.session_id in self._eager_sessions
        if self.reassembly.reject_duplicate(header, payload):
            # A replay (or a resumed session re-sending data consumed
            # beyond the restart marker): the bytes are already accounted
            # for, so recycle the region straight away.
            block.revoke()
            self.pool.put_free_blk(block)
            if not eager or self.granter.pending_request:
                granted = self.granter.on_block_freed()
                if granted:
                    yield from self._send_credits(thread, msg.session_id, granted)
            return
        block.finish(header, payload)
        self.blocks_delivered.add()
        for hdr, blk in self.reassembly.push(header, block):
            yield self._ready.put((hdr, blk))
        # An eager session reaches here only through the rendezvous
        # repair path (a NACKed block re-written into a one-off credit);
        # granting replacements would advertise regions nothing writes
        # into, slowly pinning the whole pool — unless a starved
        # rendezvous sibling is owed a grant.
        if not eager or self.granter.pending_request:
            granted = self.granter.on_block_done()
            if granted:
                yield from self._send_credits(thread, msg.session_id, granted)
        yield from self._maybe_send_marker(thread, header.session_id)

    def on_eager_block(self, thread, wire) -> Generator:
        """One eager (SEND/RECV) arrival off the shared receive queue.

        The middleware's SRQ dispatcher hands over the
        :class:`~repro.core.messages.DataBlockWire` a SEND delivered;
        header and payload arrive together, so there is no BLOCK_DONE and
        no credit bookkeeping.  The payload is copied into a pool block
        (which may wait for the writer threads — that wait, not credits,
        is the eager path's flow control: the dispatcher does not repost
        the consumed WQE until this returns, so a starved pool surfaces
        as RNR backpressure on the wire).  A checksum mismatch repairs
        over the *rendezvous* path: the NACK carries a one-off credit for
        the block just claimed, and the source re-WRITEs into it.
        """
        header = wire.header
        payload = wire.payload
        sid = header.session_id
        if self.pool is None or sid not in self._expected_bytes:
            # Reclaimed or unknown session: the WQE was consumed but the
            # payload has no home.  Counted, not fatal — like strays.
            self.stray_messages.add()
            return
        self._last_activity[sid] = self.engine.now
        if self.reassembly.reject_duplicate(header, payload):
            return  # no region was claimed; nothing to recycle
        block = yield self.pool.get_free_blk()
        block.advertise()  # FREE → WAITING: the region now owns this seq
        if self.config.checksum_blocks and header.checksum != block_checksum(payload):
            self.checksum_mismatches.add()
            self.engine.trace(
                "sink", "checksum_mismatch", session=sid, seq=header.seq
            )
            if self.config.block_repair:
                self.nacks_sent.add()
                yield from self.ctrl.send(
                    thread,
                    ControlMessage(
                        CtrlType.BLOCK_NACK,
                        sid,
                        (header.seq, Credit.for_block(block)),
                    ),
                )
            else:
                # No repair: withhold delivery (the session starves and
                # dies typed, as on the rendezvous path) but return the
                # region — it holds nothing.
                block.revoke()
                self.pool.put_free_blk(block)
            return
        block.finish(header, payload)
        self.blocks_delivered.add()
        for hdr, blk in self.reassembly.push(header, block):
            yield self._ready.put((hdr, blk))
        yield from self._maybe_send_marker(thread, sid)

    def _on_session_resume(self, thread, msg: ControlMessage) -> Generator:
        """SESSION_RESUME_REQ: re-attach a session at its restart marker.

        The reply is ``(accepted, resume_seq, initial_credits)``.  The
        source re-sends every block from ``resume_seq`` on; everything
        below it is already in the application sink (possibly written by
        a dead incarnation) and is never re-transferred.
        """
        sid = msg.session_id
        total, marker_interval = msg.data
        if not self.config.session_resume or self.pool is None or self.granter is None:
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.SESSION_RESUME_REP, sid, (False, 0, ())),
            )
            return
        bs = self.pool.block_size
        if sid in self._acked:
            # The dataset already completed; point the source past the
            # last block so it goes straight to DATASET_DONE (re-acked
            # idempotently from the _acked ledger).
            nblocks = (self._acked[sid] + bs - 1) // bs
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.SESSION_RESUME_REP, sid, (True, nblocks, ())),
            )
            return
        marker = self._marker_upto.get(sid, 0)
        stored = self._resume_grants.get(sid)
        if (
            stored is not None
            and sid in self._expected_bytes
            and stored[0] == marker
            and self.reassembly.next_seq(sid) == marker
            and self.reassembly.pending(sid) == 0
            and self._consumed_bytes.get(sid, 0) == min(marker * bs, total)
        ):
            # Retransmitted request (the previous REP was lost or slow)
            # and nothing has landed since: answer identically — the same
            # regions are still WAITING for the same writes.
            yield from self.ctrl.send(
                thread,
                ControlMessage(
                    CtrlType.SESSION_RESUME_REP, sid, (True, marker, stored[1])
                ),
            )
            return
        self.resumes.add()
        self.engine.trace("sink", "session_resume", session=sid, marker=marker)
        if sid in self._expected_bytes:
            # The old incarnation is still live here (source-side crash):
            # free its un-consumed arrivals; they will be re-sent.
            self._drop_unconsumed(sid)
        old = self.session_done.get(sid)
        if old is not None and not old.triggered:
            old.fail(EndpointCrashed(sid, "superseded by session resume")).defuse()
        self._expected_bytes[sid] = total
        self._retired.pop(sid, None)  # revived: back out of eviction order
        self._marker_interval[sid] = marker_interval
        # Accounting restarts at the marker: bytes consumed beyond it may
        # be re-delivered (overlap) and must count exactly once.
        self._consumed_bytes[sid] = min(marker * bs, total)
        self._accounting_epoch[sid] = self._accounting_epoch.get(sid, 0) + 1
        self._dataset_done_total.pop(sid, None)
        self._last_activity[sid] = self.engine.now
        self.session_done[sid] = Event(self.engine)
        self._marker_upto[sid] = marker
        self._marker_pending.pop(sid, None)
        self._marker_sent[sid] = marker
        self.reassembly.set_next_seq(sid, marker)
        # A resume supersedes any degraded-mode stream of a dead
        # incarnation; dropping the registration stops its consumer.
        self._fallback_streams.pop(sid, None)
        self._fallback_done.pop(sid, None)
        self._fallback_resume_seq.pop(sid, None)
        self._restore_grants.pop(sid, None)
        # A resumed session always rides rendezvous (the resume protocol
        # is anchored on credits + restart markers).
        self._eager_sessions.discard(sid)
        if not self._consumers_started:
            self._consumers_started = True
            for i in range(self.config.writer_threads):
                self.engine.process(self._consumer_thread(i))
        if not self._gc_running:
            self._gc_running = True
            self.engine.process(self._gc_thread())
        # Accepting the resume flushes the *entire* link ledger on the
        # source (stale grants target regions revoked here), so every
        # WAITING block — whichever session id its credit was stamped
        # with — is now unreachable: no live ledger holds a credit for
        # it.  Revoke them all before granting afresh.  Previously this
        # ran only when no sibling session was registered, which leaked
        # WAITING blocks for good whenever a dead-but-not-yet-reclaimed
        # sibling was still in ``_expected_bytes`` (resume's documented
        # contract already forbids a *healthy* concurrent sibling).
        for blk in self.pool.blocks.values():
            if blk.state is SinkBlockState.WAITING:
                blk.mr.take(blk.mr.buffer.addr)
                blk.revoke()
                self.pool.put_free_blk(blk)
        self.granter.pending_request = False
        initial = tuple(self.granter.initial_grant(self.config.initial_credits))
        self._resume_grants[sid] = (marker, initial)
        yield from self.ctrl.send(
            thread,
            ControlMessage(CtrlType.SESSION_RESUME_REP, sid, (True, marker, initial)),
        )

    # -- degraded mode: TCP fallback ---------------------------------------------------
    def _on_transport_fallback(self, thread, msg: ControlMessage) -> Generator:
        """TRANSPORT_FALLBACK_REQ: carry the session on over TCP.

        ``msg.data`` is ``(total_bytes, stream)``.  The reply is
        ``(accepted, resume_seq)``: the source re-sends every block from
        ``resume_seq`` on over the stream — same restart-marker anchor as
        a SESSION_RESUME, so nothing below the contiguous-written prefix
        crosses the wire twice.  All RDMA credits of the session die here
        (the data QPs are gone); WAITING regions are revoked like on a
        resume.
        """
        sid = msg.session_id
        total, stream = msg.data
        deny = (
            not self.config.tcp_fallback
            or self.pool is None
            or (self.fallback_deny_hook is not None and self.fallback_deny_hook())
        )
        if deny:
            self.engine.trace("sink", "fallback_denied", session=sid)
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.TRANSPORT_FALLBACK_REP, sid, (False, 0)),
            )
            return
        bs = self.pool.block_size
        if sid in self._acked:
            nblocks = (self._acked[sid] + bs - 1) // bs
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.TRANSPORT_FALLBACK_REP, sid, (True, nblocks)),
            )
            return
        if self._fallback_streams.get(sid) is stream:
            # Retransmitted request for the stream we already consume:
            # answer identically, the consumer thread is already running.
            yield from self.ctrl.send(
                thread,
                ControlMessage(
                    CtrlType.TRANSPORT_FALLBACK_REP,
                    sid,
                    (True, self._fallback_resume_seq[sid]),
                ),
            )
            return
        marker = self._marker_upto.get(sid, 0)
        self.fallback_sessions.add()
        self.engine.trace("sink", "transport_fallback", session=sid, marker=marker)
        if sid in self._expected_bytes:
            # Un-consumed RDMA arrivals above the marker will be re-sent
            # over the stream; free them now.
            self._drop_unconsumed(sid)
        done = self.session_done.get(sid)
        if done is None or done.triggered:
            # Unlike a resume this is the *same* session incarnation
            # degrading transports — keep a live done-event if one exists
            # (the GC may have failed it if the session was reclaimed).
            self.session_done[sid] = Event(self.engine)
        self._expected_bytes[sid] = total
        self._retired.pop(sid, None)  # revived: back out of eviction order
        self._consumed_bytes[sid] = min(marker * bs, total)
        self._accounting_epoch[sid] = self._accounting_epoch.get(sid, 0) + 1
        self._dataset_done_total.pop(sid, None)
        self._last_activity[sid] = self.engine.now
        self._marker_upto[sid] = marker
        self._marker_pending.pop(sid, None)
        self._marker_sent[sid] = marker
        self.reassembly.set_next_seq(sid, marker)
        self._resume_grants.pop(sid, None)
        self._restore_grants.pop(sid, None)
        # Degraded transport is a byte stream: no eager SEND path.
        self._eager_sessions.discard(sid)
        if not self._consumers_started:
            self._consumers_started = True
            for i in range(self.config.writer_threads):
                self.engine.process(self._consumer_thread(i))
        if not self._gc_running:
            self._gc_running = True
            self.engine.process(self._gc_thread())
        # Same reasoning as the resume path: the degrading source flushed
        # its whole link ledger, so every WAITING region is a stale
        # credit no live ledger can honour — revoke unconditionally (the
        # old sole-pool-user guard leaked blocks while a dead sibling
        # lingered in ``_expected_bytes``).
        for blk in self.pool.blocks.values():
            if blk.state is SinkBlockState.WAITING:
                blk.mr.take(blk.mr.buffer.addr)
                blk.revoke()
                self.pool.put_free_blk(blk)
        if self.granter is not None:
            self.granter.pending_request = False
        self._fallback_streams[sid] = stream
        self._fallback_resume_seq[sid] = marker
        self._fallback_done.pop(sid, None)
        self.engine.process(self._tcp_consumer_thread(sid, stream, marker))
        yield from self.ctrl.send(
            thread,
            ControlMessage(CtrlType.TRANSPORT_FALLBACK_REP, sid, (True, marker)),
        )

    def _tcp_consumer_thread(self, sid: int, stream, start_seq: int) -> Generator:
        """Drain one degraded session's TCP stream into the data sink.

        Blocks arrive strictly in order (TCP), so delivery bypasses the
        reassembly buffer and the credit machinery entirely; checksums
        are still verified end to end.  The thread stands down the moment
        the session's registered stream is no longer *this* one — a
        reclaim, crash, restore, or superseding fallback all pop/replace
        the registration.
        """
        thread = self.host.thread(f"snk-tcp{sid}", "app")
        cursor = start_seq
        while True:
            if self._fallback_streams.get(sid) is not stream:
                return
            frame = yield from stream.recv_block(thread)
            if self._fallback_streams.get(sid) is not stream:
                return
            if frame is None:
                # EOF sentinel: the source's pump stopped (dataset done or
                # a repromotion pending).  Record the restore anchor.
                self._fallback_done[sid] = cursor
                self.engine.trace("sink", "fallback_eof", session=sid, seq=cursor)
                return
            header, payload = frame
            if self.config.checksum_blocks and header.checksum != block_checksum(
                payload
            ):
                self.checksum_mismatches.add()
                self.engine.trace(
                    "sink", "checksum_mismatch",
                    session=header.session_id, seq=header.seq,
                )
                continue
            yield from self.data_sink.write(thread, header.length, header, payload)
            if self._fallback_streams.get(sid) is not stream:
                return
            self.fallback_blocks.add()
            self.blocks_delivered.add()
            cursor = header.seq + 1
            self._consumed_bytes[sid] = (
                self._consumed_bytes.get(sid, 0) + header.length
            )
            self._last_activity[sid] = self.engine.now
            self._advance_written(sid, header.seq)
            yield from self._maybe_finish(thread, sid)

    def _on_transport_restore(self, thread, msg: ControlMessage) -> Generator:
        """TRANSPORT_RESTORE_REQ: promote a degraded session back to RDMA.

        ``msg.data`` is ``(total_bytes, marker_interval)``.  The reply is
        ``(ready, resume_seq, initial_credits)`` — not ready until the
        TCP consumer has drained the stream to its EOF sentinel, so the
        RDMA restart point is exact and nothing races the stream.
        """
        sid = msg.session_id
        total, marker_interval = msg.data
        if self.pool is None or self.granter is None:
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.TRANSPORT_RESTORE_REP, sid, (False, 0, ())),
            )
            return
        bs = self.pool.block_size
        if sid in self._acked:
            nblocks = (self._acked[sid] + bs - 1) // bs
            yield from self.ctrl.send(
                thread,
                ControlMessage(
                    CtrlType.TRANSPORT_RESTORE_REP, sid, (True, nblocks, ())
                ),
            )
            return
        if sid not in self._expected_bytes:
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.TRANSPORT_RESTORE_REP, sid, (False, 0, ())),
            )
            return
        stored = self._restore_grants.get(sid)
        if (
            stored is not None
            and self.reassembly.next_seq(sid) == stored[0]
            and self.reassembly.pending(sid) == 0
        ):
            # Duplicate request before any restored block landed: same
            # grant again (the regions are still WAITING for it).
            yield from self.ctrl.send(
                thread,
                ControlMessage(
                    CtrlType.TRANSPORT_RESTORE_REP, sid, (True, stored[0], stored[1])
                ),
            )
            return
        done_seq = self._fallback_done.get(sid)
        if done_seq is None:
            # The consumer has not reached the EOF sentinel yet; the
            # source retries after a patience interval.
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.TRANSPORT_RESTORE_REP, sid, (False, 0, ())),
            )
            return
        self.engine.trace("sink", "transport_restore", session=sid, seq=done_seq)
        self._fallback_streams.pop(sid, None)
        self._fallback_done.pop(sid, None)
        self._fallback_resume_seq.pop(sid, None)
        self._marker_interval[sid] = marker_interval
        self._consumed_bytes[sid] = min(done_seq * bs, total)
        self._last_activity[sid] = self.engine.now
        self._marker_upto[sid] = done_seq
        self._marker_pending.pop(sid, None)
        self._marker_sent[sid] = done_seq
        self.reassembly.set_next_seq(sid, done_seq)
        initial = tuple(self.granter.initial_grant(self.config.initial_credits))
        self._restore_grants[sid] = (done_seq, initial)
        yield from self.ctrl.send(
            thread,
            ControlMessage(
                CtrlType.TRANSPORT_RESTORE_REP, sid, (True, done_seq, initial)
            ),
        )

    def _drop_unconsumed(self, session_id: int) -> None:
        """Free a session's parked and READY-but-unconsumed blocks."""
        assert self.pool is not None
        for _hdr, blk in self.reassembly.reclaim_session(session_id):
            blk.consume()
            self.pool.put_free_blk(blk)
        survivors = [
            item for item in self._ready.items if item[0].session_id != session_id
        ]
        for hdr, blk in self._ready.items:
            if hdr.session_id == session_id:
                blk.consume()
                self.pool.put_free_blk(blk)
        self._ready.items.clear()
        self._ready.items.extend(survivors)

    def crash(self) -> None:
        """Kill the sink process and restart it with only persistent state.

        Volatile state dies: live sessions, the reassembly buffer, parked
        and READY blocks, outstanding credits, consumed-byte accounting.
        What a real implementation keeps on stable storage survives: data
        already written to the application sink, the DATASET_DONE_ACK
        ledger, and the contiguous-written restart marker (recoverable
        from the data file itself).  Blocks written *out of order* beyond
        that prefix are forgotten — without a block-granular journal a
        restarted sink cannot tell them from garbage, so a resume
        re-writes them identically.
        """
        self.crashes.add()
        self.engine.trace("sink", "crash")
        for sid in list(self._expected_bytes):
            done = self.session_done.get(sid)
            if done is not None and not done.triggered:
                done.fail(EndpointCrashed(sid, "sink process crashed")).defuse()
            # Writer threads survive the "process restart" (they are sim
            # processes); invalidate any write in flight across the crash.
            self._accounting_epoch[sid] = self._accounting_epoch.get(sid, 0) + 1
        self._expected_bytes.clear()
        for sid in list(self._accounting_epoch):
            if sid not in self._retired:
                self._retire(sid)
        self._consumed_bytes.clear()
        self._dataset_done_total.clear()
        self._last_activity.clear()
        self._resume_grants.clear()
        self._restore_grants.clear()
        # The TCP consumers key their liveness on these registrations: a
        # crash orphans any degraded-mode stream.
        self._fallback_streams.clear()
        self._fallback_done.clear()
        self._fallback_resume_seq.clear()
        if self.pool is not None:
            for sid in self.reassembly.sessions():
                for _hdr, blk in self.reassembly.reclaim_session(sid):
                    blk.consume()
                    self.pool.put_free_blk(blk)
            for _hdr, blk in self._ready.items:
                blk.consume()
                self.pool.put_free_blk(blk)
            self._ready.items.clear()
            for blk in self.pool.blocks.values():
                if blk.state is SinkBlockState.WAITING:
                    blk.mr.take(blk.mr.buffer.addr)
                    blk.revoke()
                    self.pool.put_free_blk(blk)
            if self.granter is not None:
                self.granter.pending_request = False
        for sid in list(self._marker_sent):
            # The sent cursor was in memory only; re-derive it from what
            # is actually on disk so post-resume markers stay truthful.
            self._marker_sent[sid] = self._marker_upto.get(sid, 0)
        self._marker_pending.clear()

    def _send_credits(self, thread, session_id: int, credits: List[Credit]) -> Generator:
        yield from self.ctrl.send(
            thread,
            ControlMessage(CtrlType.MR_INFO_REP, session_id, tuple(credits)),
        )

    # -- data consumption -------------------------------------------------------------
    def get_ready_blk(self):
        """Event resolving to the next in-order ``(header, block)`` pair."""
        return self._ready.get()

    def _consumer_thread(self, index: int) -> Generator:
        thread = self.host.thread(f"snk-writer{index}", "app")
        assert self.pool is not None and self.granter is not None
        while True:
            header, block = yield self.get_ready_blk()
            payload = block.payload
            epoch = self._accounting_epoch.get(header.session_id, 0)
            yield from self.data_sink.write(thread, header.length, header, payload)
            block.consume()
            self.pool.put_free_blk(block)
            if self._accounting_epoch.get(header.session_id, 0) != epoch:
                # The accounting was re-anchored mid-write; this block is
                # below the new marker and will arrive again.
                continue
            self._consumed_bytes[header.session_id] = (
                self._consumed_bytes.get(header.session_id, 0) + header.length
            )
            if header.session_id in self._expected_bytes:
                self._last_activity[header.session_id] = self.engine.now
            # Freed eager blocks go back to the pool, not out as credits
            # (nothing would ever write into them) — except when a
            # starved rendezvous sibling has a request outstanding.
            if (
                header.session_id not in self._eager_sessions
                or self.granter.pending_request
            ):
                granted = self.granter.on_block_freed()
                if granted:
                    yield from self._send_credits(thread, header.session_id, granted)
            self._advance_written(header.session_id, header.seq)
            yield from self._maybe_finish(thread, header.session_id)

    def _advance_written(self, session_id: int, seq: int) -> None:
        """Advance the contiguous-written prefix (the restart marker a
        resume re-attaches to — only bytes on stable storage count)."""
        if not (self.config.block_repair or self.config.session_resume):
            return
        if session_id in self._acked:
            # A sibling writer thread finished (and retired) the session
            # while this one was still inside data_sink.write; don't
            # resurrect marker state for an acked dataset.
            return
        upto = self._marker_upto.get(session_id, 0)
        if seq < upto:
            return
        pending = self._marker_pending.setdefault(session_id, set())
        pending.add(seq)
        while upto in pending:
            pending.remove(upto)
            upto += 1
        self._marker_upto[session_id] = upto
        if not pending:
            self._marker_pending.pop(session_id, None)

    def _maybe_send_marker(self, thread, session_id: int) -> Generator:
        """Emit a BLOCK_MARKER every ``marker_interval`` blocks of
        *delivered* progress (``ReassemblyBuffer.next_seq``).

        Markers are cumulative acks: everything below one passed its
        checksum, so the source releases the repair copies it holds for
        possible BLOCK_NACK re-send.  Cadence follows delivery, not the
        writer threads — a repair copy pinned until fsync would starve
        the source pool for nothing.
        """
        if not (self.config.block_repair or self.config.session_resume):
            return
        if session_id not in self._expected_bytes:
            return
        delivered = self.reassembly.next_seq(session_id)
        interval = self._marker_interval.get(session_id, MARKER_INTERVAL_BLOCKS)
        if delivered - self._marker_sent.get(session_id, 0) < interval:
            return
        self._marker_sent[session_id] = delivered
        self.markers_sent.add()
        yield from self.ctrl.send(
            thread, ControlMessage(CtrlType.BLOCK_MARKER, session_id, delivered)
        )

    def _retire(self, session_id: int) -> None:
        """Register a no-longer-active session in the bounded history.

        Evicts the oldest retired sessions past the configured cap —
        dropping their idempotent-ack entries, restart-marker anchors
        and accounting epochs.  Sessions that came back to life (in
        ``_expected_bytes`` again) are skipped, never evicted.
        """
        # Re-insert at the back: retirement refreshes recency.
        self._retired.pop(session_id, None)
        self._retired[session_id] = None
        while len(self._retired) > self.config.sink_session_history:
            oldest = next(iter(self._retired))
            del self._retired[oldest]
            if oldest in self._expected_bytes:  # pragma: no cover - revived
                continue
            self._acked.pop(oldest, None)
            self._consumed_bytes.pop(oldest, None)
            self.session_done.pop(oldest, None)
            self._accounting_epoch.pop(oldest, None)
            self._marker_upto.pop(oldest, None)
            self._marker_sent.pop(oldest, None)
            self._marker_pending.pop(oldest, None)

    def _maybe_finish(self, thread, session_id: int) -> Generator:
        total = self._dataset_done_total.get(session_id)
        if total is None:
            return
        if self._consumed_bytes.get(session_id, 0) < total:
            return
        done = self.session_done.get(session_id)
        if done is not None and not done.triggered:
            # Mark before yielding: two consumer threads can both reach
            # this point in the same instant otherwise.
            done.succeed(total)
            # Retire the GC-relevant bookkeeping so the dicts stay bounded
            # on long-lived links; _consumed_bytes and session_done remain
            # for post-run observability.
            self._acked[session_id] = total
            self._expected_bytes.pop(session_id, None)
            self._dataset_done_total.pop(session_id, None)
            self._last_activity.pop(session_id, None)
            self._marker_upto.pop(session_id, None)
            self._marker_pending.pop(session_id, None)
            self._marker_sent.pop(session_id, None)
            self._marker_interval.pop(session_id, None)
            self._resume_grants.pop(session_id, None)
            self._restore_grants.pop(session_id, None)
            self._fallback_streams.pop(session_id, None)
            self._fallback_done.pop(session_id, None)
            self._fallback_resume_seq.pop(session_id, None)
            self._accounting_epoch.pop(session_id, None)
            self._eager_sessions.discard(session_id)
            self.reassembly.reclaim_session(session_id)  # drops the seq cursor
            self._retire(session_id)
            yield from self.ctrl.send(
                thread,
                ControlMessage(CtrlType.DATASET_DONE_ACK, session_id, total),
            )

    # -- stale-session garbage collection --------------------------------------------
    def _gc_thread(self) -> Generator:
        """Sweep idle sessions and watch the peer.  Runs only while
        sessions are live, so a drained engine is not kept awake by a
        housekeeping timer; the next SESSION_REQ restarts it.

        With heartbeats on, a sweep that finds the whole *link* silent
        past the adaptive PING cadence sends its own PING; after
        ``heartbeat_misses`` unanswered intervals every session is
        reclaimed with a typed :class:`PeerDead` — bounded-time detection
        of a dead source even when ``session_idle_timeout`` is long.  The
        per-session idle threshold itself is ``health.idle_timeout()``:
        never below the configured floor, scaled up by the RTT estimate
        on long paths."""
        thread = self.host.thread("snk-gc", "app")
        while self._expected_bytes:
            yield self.engine.timeout(GC_INTERVAL)
            now = self.engine.now
            if self.config.heartbeats and self._expected_bytes:
                interval = self.health.heartbeat_interval()
                silent = now - self.health.last_heard
                if silent >= interval and now - self._last_ping_at >= interval:
                    self.health.misses += 1
                    if self.health.misses > self.config.heartbeat_misses:
                        self._m_peer_dead.add()
                        self.engine.trace(
                            "sink", "peer_dead", misses=self.health.misses
                        )
                        for sid in list(self._expected_bytes):
                            self._reclaim_session(
                                sid,
                                error=PeerDead(
                                    sid,
                                    f"source silent for {self.health.misses} "
                                    "heartbeat intervals",
                                ),
                            )
                        continue
                    self._last_ping_at = now
                    self._m_pings.add()
                    yield from self.ctrl.send(
                        thread,
                        ControlMessage(CtrlType.PING, 0, self.health.next_ping()),
                    )
            for sid in list(self._expected_bytes):
                last = self._last_activity.get(sid, now)
                if now - last >= self.health.idle_timeout():
                    self._reclaim_session(sid)
        self._gc_running = False

    def _reclaim_session(self, session_id: int, error: Exception = None) -> None:
        """Free everything a dead session still pins at the sink."""
        assert self.pool is not None
        self.sessions_reclaimed.add()
        self.engine.trace("sink", "gc_reclaim", session=session_id)
        # Parked out-of-order arrivals and undelivered in-order blocks
        # both hold pool blocks with payload.
        self._drop_unconsumed(session_id)
        self._expected_bytes.pop(session_id, None)
        self._dataset_done_total.pop(session_id, None)
        self._last_activity.pop(session_id, None)
        # A writer mid-``write`` must not resurrect consumed-bytes
        # accounting for the reclaimed incarnation.
        self._accounting_epoch[session_id] = (
            self._accounting_epoch.get(session_id, 0) + 1
        )
        # Keep _marker_upto/_marker_sent: they anchor a later
        # SESSION_RESUME (or TRANSPORT_FALLBACK).  The out-of-order
        # window, stored grants, and any degraded-mode stream die with
        # the incarnation (its credits are revoked below).
        self._marker_pending.pop(session_id, None)
        self._resume_grants.pop(session_id, None)
        self._restore_grants.pop(session_id, None)
        self._fallback_streams.pop(session_id, None)
        self._fallback_done.pop(session_id, None)
        self._fallback_resume_seq.pop(session_id, None)
        self._eager_sessions.discard(session_id)
        self._retire(session_id)
        done = self.session_done.get(session_id)
        if done is not None and not done.triggered:
            # Defused: reclamation is the handling — whoever polls the
            # event later still sees the typed error.
            if error is None:
                error = StaleSessionReclaimed(
                    session_id,
                    f"idle past {self.config.session_idle_timeout}s, reclaimed",
                )
            done.fail(error).defuse()
        if not self._expected_bytes:
            # No live session shares the pool: advertised credits held by
            # dead sources can never be honoured — revoke them so the next
            # session starts from a full pool.
            for blk in self.pool.blocks.values():
                if blk.state is SinkBlockState.WAITING:
                    blk.mr.take(blk.mr.buffer.addr)  # discard unnotified data
                    blk.revoke()
                    self.pool.put_free_blk(blk)
            if self.granter is not None:
                self.granter.pending_request = False
