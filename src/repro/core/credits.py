"""Credit-based flow control with proactive feedback (§IV-A, §IV-C).

A *credit* is a token carrying a destination memory region: the sink
block's id, address, and rkey.  The source must hold a credit before it
may RDMA-WRITE a block; the sink replenishes credits through MR_INFO_REP
control messages.

Two policies are implemented:

- **proactive** (the paper's design): the sink pushes an initial batch
  right after session setup and, for every BLOCK_DONE notification,
  grants *up to two* fresh credits.  Granting 2-for-1 doubles the
  source's credit balance each round trip — the "similar to the slow
  start of TCP" ramp that fills a long fat pipe quickly.
- **on-demand** (the ablation, modelling Tian et al. [19]): the sink only
  answers explicit MR_INFO_REQ messages, costing the source a full RTT
  stall every time it runs dry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.core.blocks import SinkBlock
from repro.sim.resources import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pool import BlockPool
    from repro.sim.engine import Engine

__all__ = ["Credit", "CreditLedger", "CreditGranter"]


@dataclass(frozen=True)
class Credit:
    """Permission to write one block into a specific sink memory region."""

    block_id: int
    addr: int
    rkey: int

    @staticmethod
    def for_block(block: SinkBlock) -> "Credit":
        return Credit(
            block_id=block.block_id,
            addr=block.mr.buffer.addr,
            rkey=block.mr.rkey,
        )


class CreditLedger:
    """Source-side credit balance.

    Senders wait on :meth:`acquire`; the control-message handler deposits
    batches as MR_INFO_REP messages arrive.
    """

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._credits = Store(engine)
        reg = engine.metrics
        labels = {"i": reg.sequence("credit_ledger")}
        self._m_received = reg.counter("credits.received_total", **labels)
        self._m_flushed = reg.counter("credits.flushed_total", **labels)
        self._m_peak = reg.gauge("credits.peak_balance", **labels)
        reg.gauge_fn("credits.balance", lambda: len(self._credits), **labels)
        reg.gauge_fn("credits.waiters", lambda: self._credits.waiters, **labels)
        #: (time, cumulative credits received) — lets experiments verify
        #: the exponential ramp of the ×2 grant policy.
        self.history: List[tuple] = []
        #: An MR_INFO_REQ is already in flight for this link.  Senders of
        #: *all* sessions sharing the ledger consult this before asking
        #: again, so a zero balance with N concurrent jobs produces one
        #: request, not N.
        self.request_outstanding = False

    # -- backwards-compat stat views ------------------------------------------
    @property
    def total_received(self) -> int:
        return int(self._m_received.total)

    @property
    def peak_balance(self) -> int:
        return int(self._m_peak.value)

    @property
    def flushed(self) -> int:
        """Credits discarded by :meth:`flush` (stale grants to a dead
        session incarnation, dropped at resume)."""
        return int(self._m_flushed.total)

    @property
    def balance(self) -> int:
        return len(self._credits)

    @property
    def waiters(self) -> int:
        return self._credits.waiters

    def deposit(self, credits: List[Credit]) -> None:
        """Add granted credits (from an MR_INFO_REP)."""
        self.request_outstanding = False
        self._credits.put_many(credits)
        self._m_received.add(len(credits))
        self._m_peak.set_max(self.balance)
        self.history.append((self.engine.now, self.total_received))
        if self.engine.tracer is not None:
            self.engine.trace(
                "credits", "deposit",
                granted=len(credits), balance=self.balance, total=self.total_received,
            )

    def refund(self, credits: List[Credit]) -> None:
        """Return credits an aborted session never consumed.

        Unlike :meth:`deposit` this does not count toward
        ``total_received`` or the grant-ramp history — the sink already
        accounted for these when it granted them.
        """
        self._credits.put_many(credits)
        self._m_peak.set_max(self.balance)

    def flush(self) -> int:
        """Drop every held credit; returns how many were discarded.

        A resuming session must not spend credits granted to its dead
        incarnation: the sink revoked those regions when the session was
        reclaimed, so writing into them would clobber blocks the sink
        considers free.  The SESSION_RESUME grant replaces the balance
        wholesale.
        """
        flushed = len(self._credits.items)
        self._credits.items.clear()
        self.request_outstanding = False
        if flushed:
            self._m_flushed.add(flushed)
        if flushed:
            self.engine.trace("credits", "flush", discarded=flushed)
        return flushed

    def acquire(self):
        """Event resolving to one :class:`Credit` (FIFO wait)."""
        return self._credits.get()

    def cancel(self, event) -> bool:
        """Withdraw a pending :meth:`acquire` (timed-out/aborted waiter)."""
        return self._credits.cancel_get(event)


class CreditGranter:
    """Sink-side grant policy.

    The granter owns the decision *which free blocks to advertise and
    when*; actually transmitting the MR_INFO_REP is the sink engine's
    job (it owns the control channel).
    """

    def __init__(
        self,
        pool: "BlockPool[SinkBlock]",
        grant_ratio: int = 2,
        proactive: bool = True,
    ) -> None:
        if grant_ratio < 1:
            raise ValueError("grant_ratio must be >= 1")
        self.pool = pool
        self.grant_ratio = grant_ratio
        self.proactive = proactive
        #: An MR_INFO_REQ arrived while no block was free; the next freed
        #: block must be granted immediately.
        self.pending_request = False
        reg = pool.engine.metrics
        self._m_granted = reg.counter(
            "credits.granted_total", i=reg.sequence("credit_granter")
        )

    @property
    def total_granted(self) -> int:
        return int(self._m_granted.total)

    def _take_free(self, limit: int) -> List[Credit]:
        granted: List[Credit] = []
        while len(granted) < limit:
            block = self.pool.try_get_free_blk()
            if block is None:
                break
            block.advertise()
            granted.append(Credit.for_block(block))
        if granted:
            self._m_granted.add(len(granted))
        return granted

    # -- the three grant triggers of §IV-C -----------------------------------------
    def initial_grant(self, count: int) -> List[Credit]:
        """Session established: push the initial proactive batch."""
        if not self.proactive:
            return []
        return self._take_free(count)

    def on_block_done(self) -> List[Credit]:
        """A completion notification consumed one credit: grant up to
        ``grant_ratio`` replacements (exponential ramp).  Returns an empty
        list when nothing is free — the notification is simply not
        answered, exactly as the paper specifies."""
        if not self.proactive and not self.pending_request:
            return []
        limit = self.grant_ratio if self.proactive else 1
        granted = self._take_free(limit)
        if granted:
            self.pending_request = False
        return granted

    def on_request(self) -> List[Credit]:
        """An explicit MR_INFO_REQ: must answer as soon as one block is
        free; if none is, remember the debt."""
        granted = self._take_free(max(self.grant_ratio, 1))
        if not granted:
            self.pending_request = True
        return granted

    def on_block_freed(self) -> List[Credit]:
        """A consumer returned a block.  If a request is outstanding (or
        the policy is proactive and the source might be starving), satisfy
        it now."""
        if self.pending_request:
            granted = self._take_free(1)
            if granted:
                self.pending_request = False
            return granted
        if self.proactive:
            # Keep the pipeline primed: recycle the freed block as a fresh
            # credit right away.
            return self._take_free(1)
        return []
