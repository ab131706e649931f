"""Latency summaries."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.obs.stats import exact_percentile, mean

__all__ = ["summarize_latencies"]


def summarize_latencies(latencies_s: Sequence[float]) -> Dict[str, float]:
    """Mean / p50 / p90 / p99 / max of a latency sample, in microseconds."""
    if len(latencies_s) == 0:
        return {k: float("nan") for k in ("mean", "p50", "p90", "p99", "max")}
    us = [v * 1e6 for v in latencies_s]
    return {
        "mean": mean(us),
        "p50": exact_percentile(us, 50),
        "p90": exact_percentile(us, 90),
        "p99": exact_percentile(us, 99),
        "max": float(max(us)),
    }
