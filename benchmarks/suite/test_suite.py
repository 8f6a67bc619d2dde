"""Smoke test of the benchmark suite: smoke scale, 2 samples, in process.

Runs in CI's ``pytest benchmarks/ -m "not slow"`` step.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
from pathlib import Path

import pytest

from benchmarks.suite import calibrate
from benchmarks.suite.compare import verdict
from benchmarks.suite.harness import E2E_METRICS, run_workload
from benchmarks.suite.layers import METRICS
from benchmarks.suite.workloads import OUT_DIR, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bytes", "jobs/pass", "tasks/pass"}


@pytest.fixture(scope="module")
def e2e_runs():
    return {name: run_workload(name, samples=2, smoke=True) for name in WORKLOADS}


@pytest.fixture(scope="module")
def layer_runs():
    return [
        {name: run_workload(name, samples=2, smoke=True, layers=True) for name in WORKLOADS}
        for _ in range(2)
    ]


def test_benchmark_json_lists_what_the_suite_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_present_and_outcomes_checked(e2e_runs):
    for out in e2e_runs.values():
        assert out["attempted"] == 3  # the warm-up sample is checked too
        assert out["failed"] == 0, [r["problems"] for r in out["records"]]
        assert {k: m["unit"] for k, m in out["metrics"].items()} == E2E_METRICS
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_tampered_expected_digest_counts_as_failed(e2e_runs):
    warmup, first, _second = (r["digest"] for r in e2e_runs["cws_grid"]["records"])
    out = run_workload(
        "cws_grid", samples=2, smoke=True, expected=(warmup, [first, "0" * 16])
    )
    assert out["failed"] == 1
    assert [bool(r["problems"]) for r in out["records"]] == [False, False, True]
    assert "expected" in out["records"][2]["problems"][0]
    out = run_workload("cws_grid", samples=2, smoke=True, expected=("0" * 16, []))
    assert [bool(r["problems"]) for r in out["records"]] == [True, False, False]


def test_layer_metrics_present_with_full_coverage(layer_runs):
    for out in layer_runs[0].values():
        assert out["failed"] == 0, [r["problems"] for r in out["records"]]
        assert {k: m["unit"] for k, m in out["metrics"].items()} == METRICS
        assert out["metrics"]["trace.coverage"]["value"] >= 0.95
        assert out["metrics"]["trace.overhead"]["value"] > 0


def test_layer_counts_repeat_exactly(layer_runs):
    first, second = layer_runs
    for name in WORKLOADS:
        counts = {
            k: m["value"] for k, m in first[name]["metrics"].items()
            if m["unit"] in COUNT_UNITS
        }
        assert counts == {k: second[name]["metrics"][k]["value"] for k in counts}


def test_spans_nest_and_self_time_is_non_negative(layer_runs):
    for name in WORKLOADS:
        spans = [json.loads(line) for line in open(OUT_DIR / f"{name}.spans.jsonl")]
        assert spans
        child_time = [0] * len(spans)
        for span in spans:
            assert span["end_ns"] >= span["start_ns"]
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                assert parent["sample"] == span["sample"]
                assert parent["start_ns"] <= span["start_ns"]
                assert span["end_ns"] <= parent["end_ns"]
                child_time[span["parent"]] += span["end_ns"] - span["start_ns"]
        for span, inner in zip(spans, child_time):
            assert span["end_ns"] - span["start_ns"] - inner >= 0


def test_reference_loop_is_frozen():
    tree = ast.parse(Path(calibrate.__file__).read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.split(".")[0] == "repro" for name in imported)
    source = "".join(
        inspect.getsource(part) for part in (
            calibrate._ticker, calibrate._Cell, calibrate._chase, calibrate.reference_loop,
        )
    )
    assert hashlib.sha256(source.encode()).hexdigest()[:16] == "db58bd9dbde94890"
    frozen = (calibrate.ITERATIONS, calibrate.RING, calibrate.RING_STEP, calibrate.REF0_S)
    assert frozen == (15_000, 65_537, 3, 0.030)
    assert calibrate.reference_loop() == 1220770334


@pytest.mark.parametrize("base, change, expected", [
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "improved"),
    ([1.0, 1.01, 0.99, 1.0], [1.05, 1.06, 1.04, 1.05], "within bound"),
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "worse"),
    ([1.0, 1.5, 0.7, 1.2], [1.1, 1.4, 0.8, 1.0], "unresolved"),
])
def test_compare_verdicts(base, change, expected):
    assert verdict(base, change, lower_is_better=True, bound=0.1)["verdict"] == expected
