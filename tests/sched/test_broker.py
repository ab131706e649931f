"""Broker mechanics: dedupe, admission control, and the job state model."""

import pytest

from repro.apps.rftp import RftpClient, RftpServer
from repro.core.jitter import jitter_fraction
from repro.sched import (
    FileState,
    JobState,
    SchedulerConfig,
    TenantPolicy,
    TransferSpec,
)
from repro.testbeds import roce_lan

MiB = 1 << 20


def wire(tb):
    server = RftpServer(tb)
    server.start(2811)
    return server, RftpClient(tb)


def test_duplicate_destination_rides_along_on_the_primary():
    """Two submissions for one destination path transfer ONCE; the
    duplicate mirrors the primary's outcome without its own session."""
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield client.open_broker(doors=1)
        j1 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB)])
        j2 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB),
                                 TransferSpec("/data/b", 2 * MiB)])
        yield j1.done
        yield j2.done
        out.update(broker=broker, j1=j1, j2=j2)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    j1, j2, broker = out["j1"], out["j2"], out["broker"]
    assert j1.state is JobState.FINISHED and j2.state is JobState.FINISHED
    dup = j2.files[0]
    assert dup.duplicate_of is j1.files[0]
    assert dup.attempts == 0  # never transferred on its own
    assert dup.state is FileState.FINISHED
    assert broker._m_dedup_hits.count == 1
    # The primary and the non-duplicate file each ran exactly once.
    assert j1.files[0].attempts == 1 and j2.files[1].attempts == 1


def test_dedupe_window_closes_when_the_primary_finishes():
    """Back-to-back submissions for the same path after the first
    finished are fresh transfers, not dedupe hits (the file may have
    changed; also the seam for the sid-reuse marker guard)."""
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield client.open_broker(doors=1)
        j1 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB)])
        yield j1.done
        j2 = broker.submit("t", [TransferSpec("/data/a", 2 * MiB)])
        yield j2.done
        out.update(broker=broker, j1=j1, j2=j2)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert out["broker"]._m_dedup_hits.count == 0
    assert out["j2"].files[0].attempts == 1
    assert out["j2"].state is JobState.FINISHED


def test_admission_control_rejects_overflow_submissions_whole():
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield client.open_broker(
            doors=1,
            tenants={"t": TenantPolicy(max_queued=2)},
        )
        files = [TransferSpec(f"/data/f{i}", MiB) for i in range(3)]
        rejected = broker.submit("t", files)
        # Rejection is immediate and whole: the event is already up.
        assert rejected.done.triggered
        out["rejected"] = rejected
        accepted = broker.submit("t", files[:2])
        yield accepted.done
        out.update(broker=broker, accepted=accepted)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    rejected, accepted = out["rejected"], out["accepted"]
    assert rejected.state is JobState.CANCELED
    assert all(t.state is FileState.CANCELED for t in rejected.files)
    assert all("queue full" in t.error for t in rejected.files)
    assert accepted.state is JobState.FINISHED
    assert out["broker"]._m_jobs_rejected.count == 1


def test_sessions_reuse_negotiation_on_a_door():
    """After a door's first file, later files skip the link-level
    negotiation: no extra QPs, and the link is flagged negotiated."""
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield client.open_broker(doors=1)
        qps_after_open = len(tb.src_dev.qps)
        job = broker.submit(
            "t", [TransferSpec(f"/data/f{i}", MiB) for i in range(6)]
        )
        yield job.done
        out["job"] = job
        out["same_qps"] = len(tb.src_dev.qps) == qps_after_open
        out["negotiated"] = next(iter(broker.doors.values())).link._negotiated

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert out["job"].state is JobState.FINISHED
    assert out["same_qps"]  # six files, one connection set
    assert out["negotiated"]


def test_broker_and_policy_validation():
    with pytest.raises(ValueError):
        TenantPolicy(weight=0)
    with pytest.raises(ValueError):
        TenantPolicy(max_inflight=0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_active=0)
    with pytest.raises(ValueError):
        SchedulerConfig(max_attempts=0)
    with pytest.raises(ValueError):
        TransferSpec("", MiB)
    with pytest.raises(ValueError):
        TransferSpec("/data/a", 0)


def test_retry_and_watchdog_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(retry_backoff_factor=0.5)
    with pytest.raises(ValueError):
        SchedulerConfig(retry_backoff=2.0, retry_backoff_cap=1.0)
    with pytest.raises(ValueError):
        SchedulerConfig(retry_jitter=1.5)
    with pytest.raises(ValueError):
        SchedulerConfig(retry_jitter=-0.1)
    with pytest.raises(ValueError):
        SchedulerConfig(watchdog_rto_multiplier=0)
    with pytest.raises(ValueError):
        SchedulerConfig(watchdog_min_interval=0)


def test_retry_jitter_is_deterministic_per_task_and_attempt():
    a = jitter_fraction(0, "job-1", "/x", 1)
    assert a == jitter_fraction(0, "job-1", "/x", 1)
    assert 0.0 <= a < 1.0
    # Any coordinate change de-synchronises the retry.
    assert a != jitter_fraction(0, "job-1", "/x", 2)
    assert a != jitter_fraction(0, "job-1", "/y", 1)
    assert a != jitter_fraction(7, "job-1", "/x", 1)


def test_retry_backoff_is_capped_exponential():
    from repro.sched.jobs import Job

    tb = roce_lan()
    server, client = wire(tb)
    cfg = SchedulerConfig(retry_backoff=0.5, retry_backoff_factor=2.0,
                       retry_backoff_cap=3.0, retry_jitter=0.0)
    out = {}

    def driver(env):
        out["broker"] = yield client.open_broker(doors=1, broker_config=cfg)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    broker = out["broker"]
    job = Job.build("job-x", "t", [TransferSpec("/data/a", MiB)])
    task = job.files[0]
    delays = []
    for attempt in (1, 2, 3, 4, 5):
        task.attempts = attempt
        delays.append(broker._retry_delay(task))
    assert delays == [0.5, 1.0, 2.0, 3.0, 3.0]  # x2 growth, capped at 3

    # With jitter on, the delay stretches by at most the jitter fraction
    # and is reproducible (seeded, not drawn from a shared RNG).
    broker.config = SchedulerConfig(retry_backoff=0.5, retry_jitter=0.25)
    task.attempts = 1
    d1 = broker._retry_delay(task)
    assert 0.5 <= d1 <= 0.5 * 1.25
    assert d1 == broker._retry_delay(task)


class _FailingDoor:
    """Every attempt dies shortly after dispatch with a typed error."""

    name = "door-bad"

    def __init__(self, engine):
        self.engine = engine
        self.active = 0
        self.max_sessions = 4
        self.link = None
        self.breaker = None

    def admissible(self, now):
        return True

    def transfer(self, task, session_id=None):
        from repro.core.errors import TransferError
        from repro.sim.events import Event

        event = Event(self.engine)

        def _die():
            yield self.engine.timeout(0.01)
            if not event.triggered:
                event.fail(TransferError(session_id or 0, "boom"))

        self.engine.process(_die())
        return event


def test_cancel_unparks_a_file_waiting_in_retry_backoff():
    """Regression: canceling a job whose file sits in a retry backoff
    timer must cancel it NOW (timer cancelled, cancel journaled) — not
    leak it parked until the timer fires."""
    from repro.sched.broker import TransferBroker

    tb = roce_lan()
    cfg = SchedulerConfig(retry_backoff=60.0, retry_backoff_cap=60.0,
                       retry_jitter=0.0, max_attempts=3, breaker_failures=5)
    out = {}

    def driver(env):
        broker = TransferBroker(tb.engine, [_FailingDoor(tb.engine)], cfg)
        job = broker.submit("t", [TransferSpec("/data/x", MiB)])
        yield tb.engine.timeout(1.0)  # attempt failed, file now parked
        assert len(broker._parked) == 1
        assert broker._tenants["t"].parked == 1
        assert broker.cancel_job(job, reason="user says stop")
        out.update(broker=broker, job=job)
        yield job.done

    tb.engine.process(driver(tb.engine))
    tb.engine.run()

    broker, job = out["broker"], out["job"]
    assert job.state is JobState.CANCELED
    assert job.files[0].state is FileState.CANCELED
    assert job.files[0].error == "user says stop"
    assert broker._parked == {}
    assert broker._tenants["t"].parked == 0
    # The cancel hit the journal and no further attempt ever ran.
    kinds = [r["kind"] for r in broker.journal.records]
    assert kinds.count("cancel") == 1
    assert kinds.count("attempt") == 1


def test_deadline_cancels_whatever_files_remain():
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield client.open_broker(doors=1)
        job = broker.submit(
            "t", [TransferSpec(f"/data/f{i}", 8 * MiB) for i in range(4)],
            deadline=1e-6,  # expires before any transfer can land
        )
        yield job.done
        out.update(broker=broker, job=job)

    tb.engine.process(driver(tb.engine))
    tb.engine.run()

    broker, job = out["broker"], out["job"]
    assert job.state is JobState.CANCELED
    assert all(t.state is FileState.CANCELED for t in job.files)
    assert all("deadline exceeded" in t.error for t in job.files)
    assert broker._m_deadline_cancels.count == 1


def test_submit_rejects_nonpositive_deadline():
    tb = roce_lan()
    server, client = wire(tb)
    out = {}

    def driver(env):
        broker = yield client.open_broker(doors=1)
        with pytest.raises(ValueError):
            broker.submit("t", [TransferSpec("/data/a", MiB)], deadline=0)
        out["ok"] = True

    tb.engine.process(driver(tb.engine))
    tb.engine.run()
    assert out["ok"]
