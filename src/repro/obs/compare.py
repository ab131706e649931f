"""Regression gate between two ``BENCH_*.json`` documents.

A case regresses when, beyond the tolerance (default 10 %):

* ``gbps`` drops (throughput is better-higher),
* ``p50_us`` or ``p99_us`` rises (latency is better-lower) — including
  from a zero baseline, where no finite ratio exists but the change is
  still reported and gated,
* ``events`` (kernel events processed) differs at all, in either
  direction — the count is deterministic, so any drift means the
  simulation itself changed; tolerance does not apply,
* the case is missing from the current run entirely.

``events_per_sec`` is wall-clock dependent (host load, hardware), so it
is reported for information but never gates.  A metric that is ``None``
on either side is skipped — e.g. GridFTP latency, which the workload
does not produce.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.bench import validate_bench

__all__ = ["Delta", "Comparison", "compare_bench", "compare_files"]

DEFAULT_TOLERANCE = 0.10

#: metric name -> True when higher values are better.
GATED_METRICS = {"gbps": True, "p50_us": False, "p99_us": False}
#: Deterministic counts gated at zero tolerance in both directions.
EXACT_METRICS = ("events",)
INFO_METRICS = ("events_per_sec",)


@dataclass
class Delta:
    """One metric's baseline/current pair and its verdict."""

    case: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    #: Signed relative change, positive = current above baseline.
    ratio: Optional[float]
    regressed: bool
    gated: bool
    #: Gated by equality rather than by the tolerance.
    exact: bool = False

    def describe(self) -> str:
        if self.baseline is None or self.current is None:
            return f"{self.case}.{self.metric}: skipped (no data)"
        if self.exact:
            drift = self.current - self.baseline
            verdict = f"drift {drift:+.15g} REGRESSION" if drift else "match"
            return (
                f"{self.case}.{self.metric}: {self.baseline:.15g} -> "
                f"{self.current:.15g} (exact, {verdict})"
            )
        if self.ratio is None:
            pct = "from zero" if self.current != 0 else "n/a"
        else:
            pct = f"{self.ratio * 100:+.1f}%"
        flag = " REGRESSION" if self.regressed else ""
        return (
            f"{self.case}.{self.metric}: {self.baseline:.6g} -> "
            f"{self.current:.6g} ({pct}){flag}"
        )


@dataclass
class Comparison:
    tolerance: float
    deltas: List[Delta] = field(default_factory=list)
    missing_cases: List[str] = field(default_factory=list)
    new_cases: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing_cases

    def report(self) -> str:
        lines = [f"bench comparison (tolerance {self.tolerance * 100:.0f}%)"]
        for delta in self.deltas:
            lines.append("  " + delta.describe())
        for name in self.missing_cases:
            lines.append(f"  {name}: MISSING from current run (regression)")
        for name in self.new_cases:
            lines.append(f"  {name}: new case (not in baseline, not gated)")
        verdict = "OK" if self.ok else f"FAIL ({len(self.regressions)} metric(s)"
        if not self.ok:
            verdict += f", {len(self.missing_cases)} missing case(s))"
        lines.append(verdict)
        return "\n".join(lines)


def _relative_change(baseline: float, current: float) -> Optional[float]:
    if baseline == 0:
        return None
    return (current - baseline) / abs(baseline)


def compare_bench(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    cases: Optional[Sequence[str]] = None,
) -> Comparison:
    """Compare two validated bench documents case by case.

    ``cases`` restricts the gate to the named baseline cases — the CI
    single-case legs run one case and would otherwise fail the
    missing-case check for everything they deliberately skipped.  Naming
    a case the baseline does not have is an error (a typo would
    otherwise gate nothing and pass vacuously).
    """
    validate_bench(baseline)
    validate_bench(current)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    cmp = Comparison(tolerance=tolerance)
    base_results: Dict[str, dict] = baseline["results"]
    cur_results: Dict[str, dict] = current["results"]
    if cases is not None:
        unknown = sorted(set(cases) - set(base_results))
        if unknown:
            raise ValueError(f"unknown baseline case(s): {', '.join(unknown)}")
        base_results = {n: base_results[n] for n in cases}
        cur_results = {n: r for n, r in cur_results.items() if n in set(cases)}
    cmp.new_cases = sorted(set(cur_results) - set(base_results))
    for name in sorted(base_results):
        if name not in cur_results:
            cmp.missing_cases.append(name)
            continue
        base, cur = base_results[name], cur_results[name]
        for metric, higher_is_better in GATED_METRICS.items():
            b, c = base.get(metric), cur.get(metric)
            if b is None or c is None:
                cmp.deltas.append(Delta(name, metric, b, c, None, False, True))
                continue
            ratio = _relative_change(float(b), float(c))
            if ratio is None:
                # Zero baseline: no finite ratio exists, but a metric
                # appearing from nothing is a real change, not a skip —
                # a better-lower metric (latency) rising from 0 gates as
                # a regression; a better-higher one rising from 0 is an
                # improvement.  Masking this behind ``regressed = False``
                # once hid a latency metric that sprang into existence.
                regressed = float(c) != 0.0 and not higher_is_better
            elif higher_is_better:
                regressed = ratio < -tolerance
            else:
                regressed = ratio > tolerance
            cmp.deltas.append(
                Delta(name, metric, float(b), float(c), ratio, regressed, True)
            )
        for metric in EXACT_METRICS:
            b, c = base.get(metric), cur.get(metric)
            if b is None or c is None:
                cmp.deltas.append(
                    Delta(name, metric, b, c, None, False, True, exact=True)
                )
                continue
            ratio = _relative_change(float(b), float(c))
            cmp.deltas.append(
                Delta(name, metric, float(b), float(c), ratio, b != c, True,
                      exact=True)
            )
        for metric in INFO_METRICS:
            b, c = base.get(metric), cur.get(metric)
            ratio = (
                _relative_change(float(b), float(c))
                if b is not None and c is not None
                else None
            )
            cmp.deltas.append(
                Delta(
                    name,
                    metric,
                    None if b is None else float(b),
                    None if c is None else float(c),
                    ratio,
                    False,
                    False,
                )
            )
    return cmp


def compare_files(
    baseline_path: str,
    current_path: str,
    tolerance: float = DEFAULT_TOLERANCE,
    cases: Optional[Sequence[str]] = None,
) -> Comparison:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    with open(current_path) as fh:
        current = json.load(fh)
    return compare_bench(baseline, current, tolerance=tolerance, cases=cases)
