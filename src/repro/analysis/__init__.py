"""Measurement and reporting helpers for experiments."""

from repro.analysis.metrics import summarize_latencies
from repro.analysis.report import Series, Table, format_gbps, format_pct

__all__ = [
    "Series",
    "Table",
    "format_gbps",
    "format_pct",
    "summarize_latencies",
]
