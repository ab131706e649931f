"""Simulator benchmark: the host cost of simulating a fixed delivered payload.

    python3 perfbench/run.py --workload many_files --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  Every sample is a fresh interpreter
(``perfbench/worker.py``), started one at a time.

``--trace 0`` measures the end-to-end metrics: it starts samples on the
``--seed`` inputs until ``--seconds`` have passed (at least three) and
reports medians of ``host_mib_per_s`` (delivered MiB per host CPU second
of simulation), ``setup_s`` (CPU seconds from interpreter start to the
first engine step) and ``peak_rss_mib``, plus the exact
``events_per_mib``.  CPU seconds are put on a reference-speed scale by
the worker's speed probe.

``--trace 1`` measures the per-layer metrics: one untraced sample and two
cProfile-traced samples of the same inputs.  The two traced samples must
agree on every exact count, or the run refuses to report.

Every run checks outputs: each sample must finish every file byte-exact
with no leaks, and every sample of one seed must give the same simulated
digest.  Each run also runs the anchored seed once before measuring and
compares its digest with ``perfbench/anchors.json``; any other seed is
held out and checked on the invariants alone.  A failed check counts as a
failed operation and makes the run exit 1.

``--workload all`` runs the three workloads in turn and prints one table.
The last line of stdout is the JSON result; a per-run record with every
sample (spans, digests, per-layer attribution) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import LAYERS, OTHER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: The seed whose simulated digest ``anchors.json`` records.
ANCHOR_SEED = 0
MIN_SAMPLES = 3
#: A traced pooled sample takes 10-15 s of CPU; anything near this bound
#: is a hang, not a slow host.
SAMPLE_TIMEOUT_S = 120

#: Per-layer metrics read from the registries: name -> unit.
REGISTRY_METRICS = {
    "sim.events": "count",
    "core.blocks_posted": "count",
    "core.blocks_delivered": "count",
    "core.useful_block_ratio": "ratio",
    "core.block_resends": "count",
    "core.ctrl_sent": "count",
    "core.ctrl_retries": "count",
    "core.pool_leases": "count",
    "core.block_latency_s_p50": "s",
    "core.block_latency_s_p99": "s",
    "verbs.rnr_naks": "count",
    "verbs.srq_empty_naks": "count",
    "verbs.rnr_per_wqe": "ratio",
    "network.link_bytes": "B",
    "network.ctrl_datagrams": "count",
    "sched.files_finished": "count",
    "sched.dispatch_blocked": "count",
    "sched.dispatch_useful_ratio": "ratio",
    "sched.retries": "count",
    "sched.queue_wait_s_p50": "s",
    "sched.queue_wait_s_p99": "s",
}


class Sample:
    """One worker process's report, plus what this run found wrong with it."""

    def __init__(self, report: Optional[Dict[str, Any]], problems: List[str]) -> None:
        self.report = report or {}
        self.problems = list(problems) + list(self.report.get("problems", []))

    @property
    def ok(self) -> bool:
        return not self.problems

    def __getitem__(self, key: str) -> Any:
        return self.report[key]


def run_worker(workload: str, seed: int, traced: bool = False) -> Sample:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--wall0", repr(time.time()),
    ]
    if traced:
        cmd.append("--traced")
    # A fixed hash seed keeps traced call counts identical between runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Sample(None, [f"sample timed out after {SAMPLE_TIMEOUT_S}s"])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Sample(None, [f"worker exited {proc.returncode}: {tail}"])
    return Sample(json.loads(lines[-1]), [])


def load_anchor(workload: str) -> Dict[str, Any]:
    anchors = json.loads((HERE / "anchors.json").read_text())
    return anchors[workload]


def check_digests(samples: List[Sample], anchor: Optional[Dict[str, Any]]) -> None:
    """Every sample of one seed must reproduce the first one's simulated
    digest and counters, and the anchor when the seed is anchored."""
    reference = next((s for s in samples if s.report), None)
    if reference is None:
        return
    for s in samples:
        if not s.report:
            continue
        if anchor is not None and s["digest"] != anchor:
            s.problems.append(f"digest {s['digest']} != anchor {anchor}")
        elif s["digest"] != reference["digest"]:
            s.problems.append("digest differs between samples of one seed")
        if s["fingerprint"] != reference["fingerprint"]:
            s.problems.append("registry counters differ between samples of one seed")


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(samples: List[Sample]) -> Dict[str, Dict[str, Any]]:
    good = [s for s in samples if s.ok]
    return {
        "host_mib_per_s": metric(median([s["mib"] / s["run_ref_s"] for s in good]), "MiB/s"),
        "events_per_mib": metric(good[0]["digest"]["events"] / good[0]["mib"], "count/MiB"),
        "setup_s": metric(median([s["setup_ref_s"] for s in good]), "s"),
        "peak_rss_mib": metric(median([s["peak_rss_mib"] for s in good]), "MiB"),
    }


def exact_counts(s: Sample) -> Dict[str, Any]:
    layers = s["layers"]
    return {
        "calls_in": layers["calls_in"],
        "spawns": layers["spawns"],
        "timers": layers["timers"],
        "counts": s["counts"],
        "fingerprint": s["fingerprint"],
    }


def per_layer(untraced: Sample, traced: List[Sample]) -> Dict[str, Dict[str, Any]]:
    shares: Dict[str, float] = {}
    for layer in LAYERS + (OTHER,):
        shares[layer] = statistics.fmean(
            t["layers"]["self_s"][layer] / t["layers"]["total_s"] for t in traced
        )
    first = traced[0]["layers"]
    counts = traced[0]["counts"]
    events = counts["sim.events"]
    out: Dict[str, Dict[str, Any]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = metric(shares[layer], "ratio")
        out[f"{layer}.calls_in"] = metric(first["calls_in"][layer], "count")
    out[f"{OTHER}.self_share"] = metric(shares[OTHER], "ratio")
    out["sim.spawns"] = metric(first["spawns"], "count")
    out["sim.timers"] = metric(first["timers"], "count")
    out["sim.ns_per_event"] = metric(untraced["run_ref_s"] / events * 1e9, "ns")
    for name, unit in REGISTRY_METRICS.items():
        out[name] = metric(counts[name], unit)
    out["trace.unattributed_share"] = metric(
        statistics.fmean(
            t["layers"]["unattributed_s"] / t["layers"]["total_s"] for t in traced
        ),
        "ratio",
    )
    out["trace.overhead_ratio"] = metric(
        statistics.fmean(t["run_cpu_s"] for t in traced) / untraced["run_net_cpu_s"],
        "ratio",
    )
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[List[Sample], Dict[str, Any]]:
    """All samples of one run, and its metrics (empty when a check failed)."""
    samples: List[Sample] = []
    if seed != ANCHOR_SEED:
        anchored = run_worker(workload, ANCHOR_SEED)
        check_digests([anchored], load_anchor(workload))
        samples.append(anchored)
    anchor = load_anchor(workload) if seed == ANCHOR_SEED else None
    if trace:
        measured = [run_worker(workload, seed)]
        measured += [run_worker(workload, seed, traced=True) for _ in range(2)]
    else:
        measured = []
        deadline = time.monotonic() + seconds
        while len(measured) < MIN_SAMPLES or time.monotonic() < deadline:
            measured.append(run_worker(workload, seed))
            if not measured[-1].ok:
                break
    check_digests(measured, anchor)
    samples += measured
    if not all(s.ok for s in samples):
        return samples, {}
    if not trace:
        return samples, end_to_end(measured)
    untraced, traced = measured[0], measured[1:]
    if exact_counts(traced[0]) != exact_counts(traced[1]):
        traced[1].problems.append("exact counts differ between the two traced runs")
        return samples, {}
    return samples, per_layer(untraced, traced)


def write_record(name: str, samples: List[Sample], metrics: Dict[str, Any]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "samples": [dict(s.report, problems=s.problems) for s in samples],
        "metrics": metrics,
    }
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1))


def print_table(workload: str, metrics: Dict[str, Any], samples: List[Sample]) -> None:
    for name, m in metrics.items():
        print(f"{workload:18s} {name:28s} {m['value']:16.6g} {m['unit']}", file=sys.stderr)
    timed = [s for s in samples if s.ok and "run_net_cpu_s" in s.report]
    if "host_mib_per_s" in metrics and timed:
        # For information only: the same rate on raw CPU and on wall time.
        cpu = median([s["mib"] / s["run_net_cpu_s"] for s in timed])
        wall = median([s["mib"] / s["run_wall_s"] for s in timed])
        print(
            f"{workload:18s} (info) {len(timed)} samples, raw CPU {cpu:.1f} MiB/s, "
            f"wall {wall:.1f} MiB/s",
            file=sys.stderr,
        )
    for s in samples:
        for problem in s.problems:
            print(f"{workload:18s} FAILED: {problem}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Simulator benchmark (see perfbench/README.md).")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=ANCHOR_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The "build": byte-compile once so no sample pays for compilation.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    result: Dict[str, Any] = {}
    for workload in names:
        samples, metrics = measure(workload, args.seed, args.seconds, bool(args.trace))
        write_record(f"{workload}-seed{args.seed}-trace{args.trace}", samples, metrics)
        print_table(workload, metrics, samples)
        attempted += len(samples)
        failed += sum(1 for s in samples if not s.ok)
        if args.workload == "all":
            result.update({f"{workload}.{k}": v for k, v in metrics.items()})
        else:
            result = metrics
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
