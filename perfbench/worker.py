"""Run one workload once, in a fresh interpreter, and report it as JSON.

    python3 perfbench/worker.py --workload many_files --seed 0 [--traced]

``run.py`` starts one of these per sample, so every sample pays (and
measures) the full set-up: interpreter start, importing ``repro``,
generating the inputs and building the testbed.  The simulation proper is
the window from the first ``Engine.run`` entry to the last exit; with
``--traced`` a cProfile hook is enabled inside that window only.

Untraced samples also carry a speed probe (see :class:`SpeedProbe`), so
their CPU times can be put on a reference-speed scale.

The last line of stdout is one JSON object: CPU and wall seconds per
phase, the probe's speed factors, delivered MiB, the simulated digest,
the output problems, the registry counts, a fingerprint of every registry
counter, peak RSS, the phase spans and, when traced, the per-layer
attribution.
"""

import argparse
import cProfile
import heapq
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


class Spans:
    """Parent/child phase spans in CPU and wall seconds, kept in memory.

    CPU times count from interpreter start; wall times count from
    ``wall0``, the instant the parent started this process.
    """

    def __init__(self, wall0: float) -> None:
        self.wall0 = wall0
        self.records = []

    def add(self, name, parent, start, end):
        self.records.append({
            "id": len(self.records),
            "name": name,
            "parent": parent,
            "cpu": [start[0], end[0]],
            "wall": [start[1] - self.wall0, end[1] - self.wall0],
        })
        return len(self.records) - 1


def stamp():
    return time.process_time(), time.time()


class _Timer:
    __slots__ = ("when", "proc", "value")

    def __init__(self, when, proc, value) -> None:
        self.when = when
        self.proc = proc
        self.value = value


def _probe_proc(store, k):
    total = 0
    while True:
        x = yield total
        total += store[(x * 7919 + k) % len(store)][0]


class SpeedProbe:
    """Samples how fast this CPU runs, while the workload runs.

    On a shared host the speed of a CPU swings by up to 2x within seconds
    (busy sibling hyperthreads, neighbours' cache traffic), and process CPU
    time swings with it.  Every ``INTERVAL_S`` of CPU a SIGPROF handler
    runs a fixed miniature event loop (a heap of timers resuming generator
    processes that read a ~4 MiB table), the same kind of work as the
    simulator's, and times it against ``REFERENCE_S``.  The loops cost ~3%
    of CPU, and their time is taken out of every phase.
    """

    INTERVAL_S = 0.01
    PROCS = 16
    TIMERS = 120
    #: Typical loop time on a 2.0 GHz Xeon vCPU: the reference speed.
    REFERENCE_S = 3.0e-4

    def __init__(self) -> None:
        built = time.process_time()
        self.store = {i: [i, str(i), (i, i)] for i in range(20000)}
        self.phase = "setup"
        self.loops = {"setup": [], "run": [], "verify": []}
        self.build_cpu_s = time.process_time() - built

    def _loop(self) -> None:
        procs = [_probe_proc(self.store, k) for k in range(self.PROCS)]
        for proc in procs:
            next(proc)
        heap = []
        for i in range(self.TIMERS):
            when = i * 37 % 11
            heapq.heappush(heap, (when, i, _Timer(when, procs[i % self.PROCS], i)))
        while heap:
            timer = heapq.heappop(heap)[2]
            timer.proc.send(timer.value)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._loop()
        # Wall time: inside a signal handler process_time() reads stale.
        self.loops[self.phase].append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def spent(self, phase: str) -> float:
        return sum(self.loops[phase])

    def factor(self, phase: str) -> float:
        """How many times slower than reference speed the CPU ran.

        Each loop stands for one equal slice of CPU time, so a phase's
        seconds at reference speed are the sum of its slices divided by
        their own slowdowns: the phase's CPU over the harmonic mean.  One
        loop stretched by preemption barely moves a harmonic mean.
        """
        return statistics.harmonic_mean(self.loops[phase]) / self.REFERENCE_S


class SimWindow:
    """Records the first ``Engine.run`` entry and the last exit, and turns
    the profiler on only while the engine runs."""

    def __init__(self, profiler=None, probe=None) -> None:
        self.first = None
        self.last = None
        self.profiler = profiler
        self.probe = probe

    def install(self, engine_cls) -> None:
        inner = engine_cls.run
        window = self

        def run(engine, until=None):
            if window.first is None:
                window.first = stamp()
                if window.probe is not None:
                    window.probe.phase = "run"
            if window.profiler is not None:
                window.profiler.enable()
            try:
                return inner(engine, until)
            finally:
                if window.profiler is not None:
                    window.profiler.disable()
                window.last = stamp()
                if window.probe is not None:
                    window.probe.phase = "verify"

        engine_cls.run = run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--wall0", type=float, default=None)
    args = ap.parse_args()
    probe = None if args.traced else SpeedProbe()
    if probe is not None:
        probe.start()
    spans = Spans(args.wall0 if args.wall0 is not None else time.time())
    origin = (0.0, spans.wall0)

    import_start = stamp()
    from repro.obs import runtime
    from repro.sim.engine import Engine

    import repro.faults  # noqa: F401  (both entry points: import cost is set-up)
    import repro.sched  # noqa: F401
    import_end = stamp()

    workload = workloads.WORKLOADS[args.workload]
    profiler = cProfile.Profile() if args.traced else None
    window = SimWindow(profiler, probe)
    window.install(Engine)
    runtime.start_collection()
    inputs = workload.inputs(args.seed)
    inputs_end = stamp()
    result = workload.run(inputs)
    if window.first is None:
        raise SystemExit("the workload never ran an engine")
    engines = runtime.collected_engines()
    delivered, digest, problems = workload.check(inputs, result, engines)
    counts = workloads.registry_counts(engines)
    fingerprint = workloads.counters_fingerprint(engines)
    end = stamp()
    if probe is not None:
        probe.stop()

    root = spans.add("worker", None, origin, end)
    setup = spans.add("setup", root, origin, window.first)
    spans.add("import", setup, import_start, import_end)
    spans.add("inputs", setup, import_end, inputs_end)
    spans.add("build", setup, inputs_end, window.first)
    spans.add("run", root, window.first, window.last)
    spans.add("verify", root, window.last, end)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_cpu_s": window.first[0],
        "run_cpu_s": window.last[0] - window.first[0],
        "run_wall_s": window.last[1] - window.first[1],
        "verify_cpu_s": end[0] - window.last[0],
        "mib": delivered / workloads.MIB,
        "digest": digest,
        "problems": problems,
        "counts": counts,
        "fingerprint": fingerprint,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": spans.records,
    }
    if probe is not None:
        setup_s = out["setup_cpu_s"] - probe.build_cpu_s - probe.spent("setup")
        run_s = out["run_cpu_s"] - probe.spent("run")
        out["probe"] = {
            "setup_factor": probe.factor("setup"),
            "run_factor": probe.factor("run"),
            "loops": {k: len(v) for k, v in probe.loops.items()},
            "build_cpu_s": probe.build_cpu_s,
        }
        out["setup_net_cpu_s"] = setup_s
        out["run_net_cpu_s"] = run_s
        out["setup_ref_s"] = setup_s / probe.factor("setup")
        out["run_ref_s"] = run_s / probe.factor("run")
    if profiler is not None:
        out["layers"] = layers.attribute(
            profiler.getstats(), layers.LayerMap(str(SRC / "repro"))
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
