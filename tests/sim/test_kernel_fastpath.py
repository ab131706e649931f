"""Kernel fast path: timer cancellation, queue edges, and dispatch order.

The contract under test is bit-identity: cancellation must not change
the clock or the processed-event count (tombstones still dispatch), and
the single-heap kernel must dispatch in exactly ``(time, insertion
order)``, matching the golden trace recorded on the earlier kernel.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AnyOf, Engine, SimulationError, Timeout


# -- Timeout.cancel ----------------------------------------------------------

def test_cancelled_timer_runs_no_callbacks(engine):
    fired = []
    t = engine.timeout(1.0, "late")
    t.add_callback(lambda ev: fired.append(ev.value))
    assert t.cancel() is True
    engine.run()
    assert fired == []
    # The tombstone still advanced the clock and counted as processed.
    assert engine.now == 1.0
    assert engine.events_processed == 1


def test_cancel_after_fire_is_a_deterministic_noop(engine):
    fired = []
    t = engine.timeout(1e-3)
    t.add_callback(lambda ev: fired.append(ev.value))
    engine.run()
    assert len(fired) == 1
    assert t.cancel() is False  # already fired: ignored, never raises
    assert t.cancel() is False  # idempotent


def test_cancel_is_idempotent_before_fire(engine):
    t = engine.timeout(1.0)
    assert t.cancel() is True
    assert t.cancel() is True  # still pending, still cancelled
    engine.run()
    assert engine.now == 1.0


def test_anyof_winner_cancels_loser_timer(engine):
    log = []

    def racer():
        reply = engine.event()
        timer = engine.timeout(1.0)
        engine.process(replier(reply))
        yield AnyOf(engine, [reply, timer])
        assert reply.triggered
        timer.cancel()
        log.append(engine.now)

    def replier(reply):
        yield engine.timeout(1e-6)
        reply.succeed("pong")

    engine.process(racer())
    engine.run()
    assert log == [1e-6]
    # The cancelled loser still drains as a tombstone at its due time.
    assert engine.now == 1.0


# -- Event.trigger guard -----------------------------------------------------

def test_trigger_from_untriggered_source_raises(engine):
    target = engine.event()
    source = engine.event()
    with pytest.raises(RuntimeError, match="source event not yet triggered"):
        target.trigger(source)
    # The target must still be usable afterwards.
    source.succeed(7)
    target.trigger(source)
    engine.run()
    assert target.value == 7


# -- Condition detach --------------------------------------------------------

def test_resolved_anyof_detaches_from_losers(engine):
    winner = engine.event()
    loser = engine.timeout(5.0)
    cond = AnyOf(engine, [winner, loser])
    assert len(loser.callbacks) == 1
    winner.succeed("first")
    engine.run(until=1.0)
    # A Timeout is born triggered, so _collect includes it alongside the
    # winner; the detach contract is about callbacks, not the value dict.
    assert cond.processed and cond.value[winner] == "first"
    # The condition's check callback no longer rides the pending loser.
    assert loser.callbacks == []


def test_failed_condition_detaches_from_pending_children(engine):
    bad = engine.event()
    pending = engine.timeout(5.0)
    cond = AnyOf(engine, [bad, pending])
    cond.defuse()
    bad.defuse()
    bad.fail(RuntimeError("boom"))
    engine.run(until=1.0)
    assert cond.processed and not cond.ok
    assert pending.callbacks == []


# -- golden dispatch order --------------------------------------------------

def _mixed_workload(engine: Engine, log):
    """Short periodic timers, long sleepers, cancellations, and races."""

    def short(i):
        for k in range(20):
            t = engine.timeout(37e-6 + i * 3e-6)
            t.add_callback(lambda ev, i=i, k=k: log.append(("s", i, k, engine.now)))
            yield t

    def racer(i):
        for k in range(10):
            reply = engine.event()
            timer = engine.timeout(80e-6)
            if (i + k) % 3:
                reply.succeed(k)
            yield AnyOf(engine, [reply, timer])
            if reply.triggered:
                timer.cancel()
            log.append(("r", i, k, engine.now))

    def long_timer(i):
        for k in range(3):
            yield engine.timeout(0.4 + i * 1e-3)
            log.append(("l", i, k, engine.now))

    for i in range(4):
        engine.process(short(i))
        engine.process(racer(i))
    engine.process(long_timer(0))
    engine.process(long_timer(1))


#: ``(sha256 of repr(log), now, events_processed)`` of the mixed workload,
#: recorded on the earlier two-queue kernel (a timer wheel merged with the
#: heap), whose wheel-on and heap-only modes agreed bit for bit.
_MIXED_GOLDEN = (
    "0e8584a78f9262ba221bb1f3d551e738ea1ba160b6e824420363852099729f91",
    1.203,
    212,
)


def test_mixed_workload_matches_recorded_golden():
    engine = Engine()
    log = []
    _mixed_workload(engine, log)
    engine.run()
    digest = hashlib.sha256(repr(log).encode()).hexdigest()
    assert (digest, engine.now, engine.events_processed) == _MIXED_GOLDEN


def test_run_until_puts_overshooting_timer_back(engine):
    t = engine.timeout(2.0)
    engine.run(until=1.0)
    assert engine.now == 1.0
    assert not t.processed
    engine.run()
    assert engine.now == 2.0
    assert t.processed


# -- queue edges ---------------------------------------------------------------

def test_step_on_empty_queue_raises(engine):
    with pytest.raises(SimulationError, match="empty event queue"):
        engine.step()
    engine.timeout(1.0)
    engine.step()
    assert engine.now == 1.0 and engine.events_processed == 1
    with pytest.raises(SimulationError):
        engine.step()


def test_peek_is_inf_when_empty(engine):
    assert engine.peek() == math.inf
    engine.timeout(2.0)
    engine.timeout(0.5)
    assert engine.peek() == 0.5
    engine.run()
    assert engine.peek() == math.inf


def test_event_due_exactly_at_until_fires(engine):
    fired = []
    t = engine.timeout(1.0)
    t.add_callback(lambda ev: fired.append(engine.now))
    engine.run(until=1.0)
    assert fired == [1.0] and t.processed
    assert engine.now == 1.0 and engine.events_processed == 1


def test_stop_from_callback_counts_the_stopping_event(engine):
    for delay in (1.0, 2.0, 3.0):
        t = engine.timeout(delay)
        if delay == 2.0:
            t.add_callback(lambda ev: engine.stop())
    engine.run()
    assert engine.now == 2.0
    assert engine.events_processed == 2
    engine.run()
    assert engine.now == 3.0
    assert engine.events_processed == 3


# -- hypothesis: interleaved cancel/succeed/fail sequences -------------------

@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["timer", "cancel", "succeed", "fail", "race"]),
            st.integers(min_value=0, max_value=7),
            st.floats(min_value=1e-6, max_value=0.3, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_interleavings_follow_the_dispatch_spec(ops):
    """Check the kernel against its specification, op list by op list.

    Every watched event fires at exactly the time it was scheduled for,
    in ``(time, scheduling order)`` order; cancelled timers run no
    callbacks but still advance the clock and count as processed.
    """
    engine = Engine()
    fired = []  # (due, seq, now) in dispatch order
    scheduled = {}  # seq -> due
    cancelled = set()
    timers = {}  # slot -> (timer, seq)
    # Bootstrap and completion of the driver process itself.
    expected_events = 2

    def watch(ev):
        seq = len(scheduled)
        due = engine.now if not isinstance(ev, Timeout) else engine.now + ev.delay
        scheduled[seq] = due
        ev.add_callback(lambda _ev: fired.append((due, seq, engine.now)))
        return seq

    def driver():
        nonlocal expected_events
        for n, (op, slot, delay) in enumerate(ops):
            if op == "timer":
                t = engine.timeout(delay)
                timers[slot] = (t, watch(t))
                expected_events += 1
            elif op == "cancel":
                if slot in timers:
                    t, seq = timers[slot]
                    if t.cancel():
                        cancelled.add(seq)
            elif op == "succeed":
                ev = engine.event()
                ev.succeed(n)
                watch(ev)
                expected_events += 1
                assert (yield ev) == n
            elif op == "fail":
                ev = engine.event()
                ev.defuse()
                ev.fail(RuntimeError(str(n)))
                watch(ev)
                expected_events += 1
                with pytest.raises(RuntimeError):
                    yield ev
            else:  # race: a reply (maybe) against a timer, then the AnyOf
                reply = engine.event()
                t = engine.timeout(delay)
                seq = watch(t)
                expected_events += 2
                if slot % 2:
                    reply.succeed(n)
                    expected_events += 1
                yield AnyOf(engine, [reply, t])
                if reply.triggered:
                    assert t.cancel()
                    cancelled.add(seq)

    engine.process(driver())
    engine.run()
    assert all(due == now for due, _, now in fired)
    assert fired == sorted(fired)
    assert {seq for _, seq, _ in fired} == set(scheduled) - cancelled
    # Tombstones advanced the clock and were counted.
    assert engine.now == max(scheduled.values(), default=0.0)
    assert engine.events_processed == expected_events
