"""Golden pins for the source data plane, dedicated and pooled.

Every link rides one data plane: a private one (dedicated QPs) or the
shared per-host one (``use_srq``).  Both must build their QPs and CQs in
a fixed order and drive the same events, so these digests pin, bit for
bit, what the CI smoke's 120-file scheduler mix and the re-promotion
chaos scenario produce:

- the sha256 of the scheduler's JSONL report lines;
- ``engine.events_processed``;
- the sha256 of the sorted registry snapshot, whose ``qp=`` labels pin
  the QP creation order;
- the sha256 of the ``repr`` of the whole :class:`ChaosResult`.
"""

import hashlib
import itertools
import json

import pytest

from repro.core import ProtocolConfig, middleware
from repro.faults import FaultPlan, run_chaos
from repro.sched import run_sched, synthetic_spec
from repro.sched.report import report_lines
from repro.verbs import srq


@pytest.fixture(autouse=True)
def fresh_ids(monkeypatch):
    """Session, client and SRQ ids come from process-wide counters (the
    SRQ's labels its metrics): start them where a fresh process does,
    whatever ran earlier."""
    monkeypatch.setattr(middleware, "_session_ids", itertools.count(1))
    monkeypatch.setattr(middleware, "_client_ids", itertools.count(1))
    monkeypatch.setattr(srq, "_srq_handles", itertools.count(1))


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _registry_sha(engine):
    rows = sorted(json.dumps(r, sort_keys=True) for r in engine.metrics.snapshot())
    return _sha(rows)


SCHED_GOLDEN = {
    False: (
        "bc39167ea0730e5b31aaafc51a5680c5b9fd3a4835e0ae9cdf0f0ce5160ee161",
        16783,
        "0dda9349df798799096fa3170ce26a919879eafc3b796eefd717abdbd08a9b7e",
    ),
    True: (
        "69ee5dbe0238beee3fd389e2ec09c110bb4002e9d8bcedaa0d00e81f863f6b48",
        16645,
        "98de8a12b612e7847ad0b8f8e7cd45beda75172cde8a74629b253607b07d0d34",
    ),
}


@pytest.mark.parametrize("use_srq", [False, True], ids=["dedicated", "pooled"])
def test_sched_120_files_golden(use_srq):
    spec = synthetic_spec(seed=0, total_files=120)
    if use_srq:
        spec["use_srq"] = True
    result = run_sched(spec)
    engine = result.testbed.engine
    got = (
        _sha(report_lines(result.jobs, engine, result.header)),
        engine.events_processed,
        _registry_sha(engine),
    )
    assert got == SCHED_GOLDEN[use_srq]


CHAOS_GOLDEN = {
    0: "576d509bc83a2153fc712ef0be0ef6c674802e4fd91248526403299a16490653",
    1: "9d3c68fce72e31169ee46d5b795be111e28571b4d13c688b30ad330df5c8b3ed",
    3: "7cf7763c8f1f778732961011f7bc3b706ee8ccd6b5d1f18cfd9bd525e73b48e4",
    5: "4eff3b4ab54a3b07c8381d0a45821f35f33f140ae52b382e980d7182116bc0de",
}


@pytest.mark.parametrize("seed", sorted(CHAOS_GOLDEN))
def test_repromotion_chaos_golden(seed):
    """The scenario of ``test_fallback.py::
    test_repromotion_returns_to_rdma_mid_transfer``: every data QP killed,
    TCP fallback, then a reopened channel carries the tail."""
    r = run_chaos(
        "roce-lan",
        total_bytes=256 << 20,
        plan=FaultPlan(seed=seed, qp_kills=tuple((0.002, i) for i in range(4))),
        config=ProtocolConfig(breaker_cooldown_min=0.01),
    )
    assert hashlib.sha256(repr(r).encode()).hexdigest() == CHAOS_GOLDEN[seed]
