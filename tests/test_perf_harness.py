"""Smoke tests for the wall-clock perf harness (benchmarks/perf).

These do not assert absolute speed — CI machines vary — only that the
harness runs its scenarios, emits schema-conformant reports, computes
speedups, and that the regression gate trips when it should.
"""

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.perf import (  # noqa: E402
    BENCH_PERF_SCHEMA,
    PerfResult,
    SCENARIOS,
    compare_throughput,
    run_suite,
    write_report,
)
from benchmarks.perf.harness import load_report  # noqa: E402


REQUIRED_METRICS = {"wall_s", "events", "events_per_s", "throughput", "throughput_unit"}


def test_registry_has_the_issue_scenarios():
    # The ISSUE names these workload families explicitly.
    assert {"kernel_events", "resource_churn", "sched_small_jobs",
            "queue_scaling", "jaws_shards", "entk_frontier"} <= set(SCENARIOS)
    for scenario in SCENARIOS.values():
        assert scenario.smoke and scenario.full, scenario.name


def test_smoke_scenario_produces_metrics(tmp_path):
    result = run_suite("smoke", only=["sched_small_jobs"], verbose=False)
    doc = write_report(result, tmp_path / "BENCH_PERF.json")
    assert doc["schema"] == BENCH_PERF_SCHEMA
    metrics = doc["modes"]["smoke"]["scenarios"]["sched_small_jobs"]
    assert REQUIRED_METRICS <= set(metrics)
    assert metrics["wall_s"] > 0
    assert metrics["events"] > 0
    assert metrics["throughput"] > 0
    assert metrics["throughput_unit"] == "jobs/s"
    assert doc["modes"]["smoke"]["total_wall_s"] == metrics["wall_s"]
    # Round-trips through the schema-checked loader.
    assert load_report(tmp_path / "BENCH_PERF.json") == doc


def test_profile_reports_gc_per_generation():
    from benchmarks.perf.profile_scenario import profile_scenario

    log = io.StringIO()
    summary = profile_scenario("entk_frontier", mode="smoke", limit=1, stream=log)
    gc_row = summary["gc"]
    assert len(gc_row["collections"]) == len(gc_row["seconds"]) == 3
    assert sum(gc_row["collections"]) > 0  # the campaign allocates enough
    assert gc_row["total_s"] == pytest.approx(sum(gc_row["seconds"]), abs=1e-5)
    assert summary["metrics"]["events"] > 0
    assert "cyclic GC: gen0" in log.getvalue()


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        run_suite("smoke", only=["no_such_scenario"], verbose=False)


def _doc(throughputs, mode="smoke"):
    return {
        "schema": BENCH_PERF_SCHEMA,
        "modes": {
            mode: {
                "scenarios": {
                    name: {"wall_s": 1.0, "throughput": tp,
                           "throughput_unit": "x/s"}
                    for name, tp in throughputs.items()
                }
            }
        },
    }


def test_compare_throughput_gate():
    committed = _doc({"a": 1000.0, "b": 500.0})
    # Within 2x: passes.
    assert compare_throughput(_doc({"a": 600.0, "b": 300.0}), committed) == []
    # One scenario collapsed by >2x: flagged, the other not.
    failures = compare_throughput(_doc({"a": 400.0, "b": 300.0}), committed)
    assert len(failures) == 1 and failures[0].startswith("a:")
    # Scenario missing from the fresh run is skipped, not an error.
    assert compare_throughput(_doc({"b": 400.0}), committed) == []


def test_speedup_section():
    result = PerfResult()
    result.record("smoke", "a", {"wall_s": 0.5, "throughput": 10.0})
    result.baseline = {
        "description": "seed",
        "modes": {"smoke": {"scenarios": {"a": {"wall_s": 2.0}}}},
    }
    doc = result.to_doc()
    assert doc["speedup"]["smoke"]["a"] == 4.0


def test_committed_report_meets_issue_targets():
    """The committed BENCH_PERF.json must carry the before/after evidence
    the scheduler-fast-path ISSUE requires: same-machine speedup >= 2x vs
    the embedded pre-fast-path baseline on at least two of the
    end-to-end scenarios {entk_frontier, sched_small_jobs, jaws_shards}.
    (The earlier indexed-scheduler evidence vs the seed baseline lives in
    git history; the baseline embedded now is the pre-fast-path report.)"""
    path = Path(__file__).resolve().parents[1] / "benchmarks/results/BENCH_PERF.json"
    doc = json.loads(path.read_text())
    assert doc["schema"] == BENCH_PERF_SCHEMA
    assert "baseline" in doc, "BENCH_PERF.json must embed a baseline"
    full = doc["speedup"]["full"]
    e2e = ["entk_frontier", "sched_small_jobs", "jaws_shards"]
    at_2x = [name for name in e2e if full[name] >= 2.0]
    assert len(at_2x) >= 2, f"only {at_2x} cleared 2x: {[full[n] for n in e2e]}"
    # Every e2e scenario moved forward; none regressed to fund the others.
    assert all(full[name] >= 1.0 for name in e2e), full
