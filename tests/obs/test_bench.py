"""Benchmark harness + regression gate.

The full quick suite runs once here (it is the acceptance criterion for
``python -m repro bench --quick``); the comparison tests then work on
synthetic documents so they stay fast.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs.bench import (
    BENCH_CASES,
    bench_filename,
    run_bench,
    validate_bench,
    write_bench,
)
from repro.obs.compare import compare_bench, compare_files


def _doc(**overrides):
    base = {
        "schema": 1,
        "kind": "repro-bench",
        "date": "2026-08-05",
        "mode": "quick",
        "results": {
            "case_a": {
                "gbps": 10.0, "p50_us": 100.0, "p99_us": 200.0,
                "events_per_sec": 1e5, "sim_time": 1.0, "events": 1000,
            },
            "case_b": {
                "gbps": 2.0, "p50_us": None, "p99_us": None,
                "events_per_sec": 5e4, "sim_time": 2.0, "events": 500,
            },
        },
    }
    base.update(overrides)
    return base


def test_quick_suite_produces_schema_valid_document(tmp_path):
    doc = run_bench("quick", date="2026-08-05")
    validate_bench(doc)
    assert set(doc["results"]) == {c.name for c in BENCH_CASES}
    for name, result in doc["results"].items():
        if name == "sim_kernel":
            # Kernel microbenchmark: no data plane, so no throughput.
            assert result["gbps"] is None
        else:
            assert result["gbps"] is not None and result["gbps"] > 0, name
        assert result["events"] > 0 and result["sim_time"] > 0, name
        assert result["events_per_sec"] > 0, name
    # GridFTP reports no per-block latency — null, never NaN.
    assert doc["results"]["gridftp_ani_wan"]["p50_us"] is None
    assert doc["results"]["rftp_roce_lan"]["p99_us"] > 0
    path = tmp_path / bench_filename(doc["date"])
    write_bench(doc, str(path))
    reloaded = json.loads(path.read_text())
    validate_bench(reloaded)
    assert reloaded["date"] == "2026-08-05"


def test_single_case_selection_and_unknown_case():
    doc = run_bench("quick", only=["fio_write_roce"], date="2026-08-05")
    assert list(doc["results"]) == ["fio_write_roce"]
    with pytest.raises(ValueError, match="unknown bench case"):
        run_bench("quick", only=["nope"], date="2026-08-05")
    with pytest.raises(ValueError, match="mode"):
        run_bench("warp", date="2026-08-05")


def test_validate_rejects_malformed_documents():
    with pytest.raises(ValueError):
        validate_bench(_doc(kind="other"))
    with pytest.raises(ValueError):
        validate_bench(_doc(schema=99))
    with pytest.raises(ValueError):
        validate_bench(_doc(results={}))
    bad = _doc()
    del bad["results"]["case_a"]["gbps"]
    with pytest.raises(ValueError, match="missing key"):
        validate_bench(bad)
    bad = _doc()
    bad["results"]["case_a"]["p50_us"] = float("nan")
    with pytest.raises(ValueError, match="NaN"):
        validate_bench(bad)
    bad = _doc()
    del bad["date"]
    with pytest.raises(ValueError, match="date"):
        validate_bench(bad)


def test_identical_documents_pass_the_gate():
    doc = _doc()
    cmp = compare_bench(doc, doc)
    assert cmp.ok
    assert not cmp.regressions
    assert "OK" in cmp.report()


def test_twenty_percent_gbps_regression_fails():
    base, cur = _doc(), _doc()
    cur["results"]["case_a"]["gbps"] *= 0.8
    cmp = compare_bench(base, cur, tolerance=0.10)
    assert not cmp.ok
    assert [(d.case, d.metric) for d in cmp.regressions] == [("case_a", "gbps")]
    assert "REGRESSION" in cmp.report()


def test_latency_gate_is_higher_is_worse():
    base, cur = _doc(), _doc()
    cur["results"]["case_a"]["p99_us"] *= 1.25
    assert not compare_bench(base, cur).ok
    # Latency *improvement* of any size is fine.
    cur = _doc()
    cur["results"]["case_a"]["p99_us"] *= 0.5
    assert compare_bench(base, cur).ok


def test_within_tolerance_changes_pass():
    base, cur = _doc(), _doc()
    cur["results"]["case_a"]["gbps"] *= 0.95
    cur["results"]["case_a"]["p50_us"] *= 1.05
    assert compare_bench(base, cur, tolerance=0.10).ok


def test_events_per_sec_is_informational_only():
    base, cur = _doc(), _doc()
    cur["results"]["case_a"]["events_per_sec"] *= 0.1  # wall-clock noise
    assert compare_bench(base, cur).ok


@pytest.mark.parametrize("drift", [1, -1])
def test_events_drift_either_way_is_a_regression(drift):
    # The event count is deterministic: one event more or fewer means
    # the simulation changed, whatever the tolerance.
    base, cur = _doc(), _doc()
    cur["results"]["case_a"]["events"] += drift
    cmp = compare_bench(base, cur, tolerance=0.5)
    assert not cmp.ok
    assert [(d.case, d.metric) for d in cmp.regressions] == [("case_a", "events")]
    delta = cmp.regressions[0]
    assert delta.exact
    assert f"1000 -> {1000 + drift} (exact, drift {drift:+d} REGRESSION)" in delta.describe()


def test_matching_events_describe_as_exact():
    doc = _doc()
    cmp = compare_bench(doc, doc)
    described = [d.describe() for d in cmp.deltas if d.metric == "events"]
    assert described == [
        "case_a.events: 1000 -> 1000 (exact, match)",
        "case_b.events: 500 -> 500 (exact, match)",
    ]


def test_missing_case_is_a_regression_and_new_case_is_not():
    base, cur = _doc(), _doc()
    del cur["results"]["case_b"]
    cur["results"]["case_c"] = copy.deepcopy(base["results"]["case_a"])
    cmp = compare_bench(base, cur)
    assert cmp.missing_cases == ["case_b"]
    assert cmp.new_cases == ["case_c"]
    assert not cmp.ok


def test_case_filter_limits_the_gate_to_named_cases():
    base, cur = _doc(), _doc()
    # case_b missing AND case_a regressed — but the filter only sees case_a.
    del cur["results"]["case_b"]
    cur["results"]["case_a"]["gbps"] *= 0.5
    cmp = compare_bench(base, cur, cases=["case_a"])
    assert cmp.missing_cases == []
    assert [(d.case, d.metric) for d in cmp.regressions] == [("case_a", "gbps")]
    # Filtering to the intact case passes despite the other regression.
    cur = _doc()
    cur["results"]["case_a"]["gbps"] *= 0.5
    assert compare_bench(base, cur, cases=["case_b"]).ok
    with pytest.raises(ValueError, match="unknown baseline case"):
        compare_bench(base, cur, cases=["nope"])


def test_zero_baseline_latency_rise_is_gated_not_masked():
    # A better-lower metric springing from 0 has no finite ratio, but it
    # is a real regression — the old ``ratio is None -> pass`` masked it.
    base, cur = _doc(), _doc()
    base["results"]["case_a"]["p99_us"] = 0.0
    cmp = compare_bench(base, cur)
    assert not cmp.ok
    regressed = [(d.case, d.metric) for d in cmp.regressions]
    assert ("case_a", "p99_us") in regressed
    delta = next(d for d in cmp.deltas if d.metric == "p99_us"
                 and d.case == "case_a")
    assert delta.ratio is None
    assert "from zero" in delta.describe()


def test_zero_baseline_gbps_rise_is_an_improvement():
    base, cur = _doc(), _doc()
    base["results"]["case_a"]["gbps"] = 0.0
    assert compare_bench(base, cur).ok


def test_zero_baseline_zero_current_is_no_change():
    base, cur = _doc(), _doc()
    base["results"]["case_a"]["p99_us"] = 0.0
    cur["results"]["case_a"]["p99_us"] = 0.0
    assert compare_bench(base, cur).ok


def test_none_metrics_are_skipped_not_regressions():
    base, cur = _doc(), _doc()
    cur["results"]["case_a"]["p50_us"] = None  # lost the measurement
    assert compare_bench(base, cur).ok


def test_compare_files_round_trip(tmp_path):
    base, cur = _doc(), _doc()
    cur["results"]["case_a"]["gbps"] *= 0.5
    bp, cp = tmp_path / "base.json", tmp_path / "cur.json"
    bp.write_text(json.dumps(base))
    cp.write_text(json.dumps(cur))
    cmp = compare_files(str(bp), str(cp))
    assert not cmp.ok


def test_committed_baseline_is_schema_valid():
    import pathlib

    baseline = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "BENCH_baseline.json"
    )
    doc = json.loads(baseline.read_text())
    validate_bench(doc)
    assert doc["mode"] == "quick"
    assert set(doc["results"]) == {c.name for c in BENCH_CASES}
