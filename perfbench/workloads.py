"""The benchmark's three workloads, their output checks and their counts.

Each workload turns a seed into inputs for one public entry point of the
simulator (``repro.sched.run_sched`` or ``repro.faults.run_chaos``), runs
it, and reduces the result to three things:

- ``digest``: the simulated outcome (sim time, simulated goodput, kernel
  events, file and block latency percentiles).  It is deterministic for a
  seed, so a change that only makes the simulator faster must leave it
  bit-identical;
- ``problems``: every violated output invariant (all files FINISHED, the
  delivery audit byte-exact, no leaks at quiescence);
- ``counts``: per-layer work counts read from every engine's metrics
  registry.

This module imports nothing from ``repro`` at import time, so the worker
can time the import itself as part of set-up.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

MIB = 1 << 20
#: Files per many-file run: large enough that the per-file costs (~140
#: events, ~22 process spawns, ~75 timers per file) dominate the fixed
#: cost of opening doors, and that one run takes seconds of host time.
MANY_FILES = 1500
#: The bulk transfer is 15.75–16 GiB with a seed-chosen odd tail, so the
#: partial final block is exercised and held-out seeds change the input.
BULK_BLOCK = 4 * MIB
BULK_BLOCKS_MIN = 4032
BULK_BLOCKS_SPREAD = 64


def _pooled_config():
    from repro.core import ProtocolConfig

    return ProtocolConfig(use_srq=True, eager_threshold=4 * MIB, srq_depth=24)


def many_files_inputs(seed: int) -> Dict[str, Any]:
    from repro.sched import synthetic_spec

    return {"spec": synthetic_spec(seed, total_files=MANY_FILES, doors=2)}


def many_files_pooled_inputs(seed: int) -> Dict[str, Any]:
    from repro.sched import synthetic_spec

    return {
        "spec": synthetic_spec(
            seed, total_files=MANY_FILES, doors=2, max_active=64
        ),
        "config": _pooled_config(),
    }


def bulk_wan_inputs(seed: int) -> Dict[str, Any]:
    from repro.faults import FaultPlan
    from repro.testbeds import TESTBEDS

    rng = random.Random(seed)
    blocks = BULK_BLOCKS_MIN + rng.randrange(BULK_BLOCKS_SPREAD)
    total = blocks * BULK_BLOCK - rng.randrange(1, BULK_BLOCK)
    return {
        "testbed": TESTBEDS["ani-wan"](seed=seed),
        "total_bytes": total,
        "plan": FaultPlan(seed=seed),
    }


def run_many_files(inputs: Dict[str, Any]):
    from repro.sched import run_sched

    return run_sched(inputs["spec"], config=inputs.get("config"), audit=True)


def run_bulk_wan(inputs: Dict[str, Any]):
    from repro.faults import run_chaos

    return run_chaos(
        inputs["testbed"], total_bytes=inputs["total_bytes"], plan=inputs["plan"]
    )


def _merged(engines, name: str):
    from repro.obs.registry import HistogramMetric

    return HistogramMetric.merged(
        m for engine in engines for m in engine.metrics.family(name)
    )


def _pct(hist, q: float) -> float:
    """Percentile of a merged histogram; 0.0 when it saw nothing (a
    workload that never touches the layer)."""
    return hist.percentile(q) if hist.count else 0.0


def check_many_files(inputs: Dict[str, Any], result, engines) -> Tuple[int, Dict[str, Any], List[str]]:
    """``(delivered bytes, digest, problems)`` of a run_sched run."""
    problems: List[str] = []
    expected = sum(len(job["files"]) for job in inputs["spec"]["jobs"])
    files = [task for job in result.jobs for task in job.files]
    if len(files) != expected:
        problems.append(f"{len(files)} files scheduled, {expected} submitted")
    if not result.all_finished:
        unfinished = sum(1 for t in files if t.state.value != "FINISHED")
        problems.append(f"{unfinished} files not FINISHED")
    if result.audit_ok is not True:
        problems.append(f"delivery audit failed: {result.audit_problems[:3]}")
    if result.leaks:
        problems.append(f"leaks at quiescence: {result.leaks[:3]}")
    delivered = sum(t.size for t in files if t.state.value == "FINISHED")
    now = result.testbed.engine.now
    files_hist = _merged(engines, "sched.file_latency_seconds")
    blocks_hist = _merged(engines, "source.block_latency_seconds")
    digest = {
        "sim_time": now,
        "gbps": delivered * 8 / now / 1e9 if now > 0 else 0.0,
        "events": sum(e.events_processed for e in engines),
        "file_p50": _pct(files_hist, 50),
        "file_p99": _pct(files_hist, 99),
        "block_p50": _pct(blocks_hist, 50),
        "block_p99": _pct(blocks_hist, 99),
    }
    return delivered, digest, problems


def check_bulk_wan(inputs: Dict[str, Any], result, engines) -> Tuple[int, Dict[str, Any], List[str]]:
    """``(delivered bytes, digest, problems)`` of a run_chaos run."""
    problems: List[str] = []
    if not result.completed:
        problems.append(f"transfer did not complete: {result.error}")
    if result.byte_exact is not True:
        problems.append("delivery not byte-exact")
    if not result.clean:
        problems.append(f"not clean: {list(result.leaks)[:3]}")
    total = inputs["total_bytes"]
    delivered = total if result.completed and result.byte_exact else 0
    elapsed = result.outcome.elapsed if result.outcome is not None else 0.0
    blocks_hist = _merged(engines, "source.block_latency_seconds")
    digest = {
        "sim_time": result.sim_time,
        "gbps": delivered * 8 / result.sim_time / 1e9 if result.sim_time > 0 else 0.0,
        "events": sum(e.events_processed for e in engines),
        "file_p50": elapsed,
        "file_p99": elapsed,
        "block_p50": _pct(blocks_hist, 50),
        "block_p99": _pct(blocks_hist, 99),
    }
    return delivered, digest, problems


@dataclass(frozen=True)
class Workload:
    """One named workload: inputs from a seed, a run, and its checks."""

    name: str
    inputs: Callable[[int], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Any]
    check: Callable[..., Tuple[int, Dict[str, Any], List[str]]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("many_files", many_files_inputs, run_many_files, check_many_files),
        Workload(
            "many_files_pooled", many_files_pooled_inputs, run_many_files,
            check_many_files,
        ),
        Workload("bulk_wan", bulk_wan_inputs, run_bulk_wan, check_bulk_wan),
    )
}


def _total(engines, name: str) -> float:
    return sum(m.total for e in engines for m in e.metrics.family(name))


def _count(engines, name: str) -> int:
    return sum(m.count for e in engines for m in e.metrics.family(name))


def registry_counts(engines) -> Dict[str, float]:
    """Per-layer work counts from the engines' metrics registries."""
    posted = _total(engines, "data.blocks_posted")
    delivered = _total(engines, "sink.blocks_delivered")
    wqes = _count(engines, "qp.bytes_sent")
    rnr = _total(engines, "qp.rnr_naks")
    finished = _total(engines, "sched.files_finished")
    blocked = _total(engines, "sched.dispatch_blocked")
    block_lat = _merged(engines, "source.block_latency_seconds")
    queue_wait = _merged(engines, "sched.queue_wait_seconds")
    return {
        "sim.events": sum(e.events_processed for e in engines),
        "core.blocks_posted": posted,
        "core.blocks_delivered": delivered,
        "core.useful_block_ratio": delivered / posted if posted else 0.0,
        "core.block_resends": _total(engines, "source.block_resends"),
        "core.ctrl_sent": _count(engines, "ctrl.sent"),
        "core.ctrl_retries": _total(engines, "source.ctrl_retries"),
        "core.pool_leases": _total(engines, "qp_pool.leases"),
        "core.block_latency_s_p50": _pct(block_lat, 50),
        "core.block_latency_s_p99": _pct(block_lat, 99),
        "verbs.rnr_naks": rnr,
        "verbs.srq_empty_naks": _total(engines, "srq.empty_naks"),
        "verbs.rnr_per_wqe": rnr / wqes if wqes else 0.0,
        "network.link_bytes": _total(engines, "link.bytes_sent"),
        "network.ctrl_datagrams": _total(engines, "path.ctrl_datagrams"),
        "sched.files_finished": finished,
        "sched.dispatch_blocked": blocked,
        "sched.dispatch_useful_ratio": (
            finished / (finished + blocked) if finished + blocked else 0.0
        ),
        "sched.retries": _total(engines, "sched.retries"),
        "sched.queue_wait_s_p50": _pct(queue_wait, 50),
        "sched.queue_wait_s_p99": _pct(queue_wait, 99),
    }


def counters_fingerprint(engines) -> str:
    """Hash of every counter and histogram count in every registry — the
    exact work record two runs of one input must share."""
    from repro.obs.registry import CounterMetric, HistogramMetric

    rows = []
    for i, engine in enumerate(engines):
        for m in engine.metrics:
            if isinstance(m, (CounterMetric, HistogramMetric)):
                labels = sorted(m.labels.items())
                rows.append(f"{i}|{m.name}|{labels!r}|{m.total!r}|{m.count}")
    rows.sort()
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()
