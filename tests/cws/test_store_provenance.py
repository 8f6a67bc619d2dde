"""Tests for WorkflowStore and ProvenanceStore."""

import pytest

from repro.core import TaskSpec, Workflow
from repro.cws import ProvenanceStore, TaskTrace, WorkflowStore
from repro.data import File


def wf_diamond():
    wf = Workflow("d")
    wf.add_task(TaskSpec("src", runtime_s=5, outputs=(File("s", 1000),)))
    wf.add_task(TaskSpec("big", runtime_s=50, inputs=("s",), outputs=(File("b", 9000),)))
    wf.add_task(TaskSpec("small", runtime_s=1, inputs=("s",), outputs=(File("m", 10),)))
    wf.add_task(TaskSpec("sink", runtime_s=5, inputs=("b", "m")))
    return wf


def trace(task="t", node_type="n", speed=1.0, runtime=10.0, ok=True, wf="w", **kw):
    start = kw.pop("start", 0.0)
    return TaskTrace(
        workflow=wf,
        task=task,
        attempt=1,
        node_id=f"{node_type}-0",
        node_type=node_type,
        node_speed=speed,
        cores=1,
        memory_gb=2.0,
        input_bytes=kw.pop("input_bytes", 0),
        submit_time=start,
        start_time=start,
        end_time=start + runtime,
        succeeded=ok,
    )


class TestWorkflowStore:
    def test_register_and_queries(self):
        store = WorkflowStore()
        store.register(wf_diamond(), now=3.0)
        assert "d" in store
        assert len(store) == 1
        assert store.get("d").registered_at == 3.0

    def test_rank_of_is_bottom_level(self):
        store = WorkflowStore()
        store.register(wf_diamond())
        assert store.rank_of("d", "src") == 2
        assert store.rank_of("d", "big") == 1
        assert store.rank_of("d", "sink") == 0

    def test_input_bytes_from_producers(self):
        store = WorkflowStore()
        store.register(wf_diamond())
        assert store.input_bytes_of("d", "sink") == 9010
        assert store.input_bytes_of("d", "big") == 1000
        assert store.input_bytes_of("d", "src") == 0

    def test_completion_tracking(self):
        store = WorkflowStore()
        store.register(wf_diamond())
        assert store.active_workflows()
        for t in ("src", "big", "small", "sink"):
            store.mark_completed("d", t)
        assert store.get("d").done
        assert not store.active_workflows()

    def test_dependents(self):
        store = WorkflowStore()
        store.register(wf_diamond())
        assert store.dependents_of("d", "src") == ["big", "small"]


class TestProvenanceStore:
    def test_add_and_count(self):
        prov = ProvenanceStore()
        prov.add_trace(trace())
        assert len(prov) == 1

    def test_cross_workflow_task_history(self):
        prov = ProvenanceStore()
        prov.add_trace(trace(task="salmon", wf="run1"))
        prov.add_trace(trace(task="salmon", wf="run2"))
        assert len(prov.for_task("salmon")) == 2
        assert len(prov.for_task("salmon", workflow="run1")) == 1

    def test_runtimes_filter_failures_and_node_type(self):
        prov = ProvenanceStore()
        prov.add_trace(trace(task="t", runtime=10, node_type="a"))
        prov.add_trace(trace(task="t", runtime=20, node_type="b"))
        prov.add_trace(trace(task="t", runtime=99, ok=False))
        assert sorted(prov.runtimes("t")) == [10, 20]
        assert prov.runtimes("t", node_type="a") == [10]

    def test_summary(self):
        prov = ProvenanceStore()
        prov.add_trace(trace(task="t", runtime=10))
        prov.add_trace(trace(task="t", runtime=30))
        s = prov.summary("t")
        assert s["executions"] == 2
        assert s["runtime_mean"] == 20
        assert s["runtime_max"] == 30
        assert prov.summary("ghost") == {"task": "ghost", "executions": 0}

    def test_nominal_runtime_normalizes_speed(self):
        t = trace(runtime=10, speed=2.0)
        assert t.nominal_runtime == 20.0

    def test_export_rows(self):
        prov = ProvenanceStore()
        prov.add_trace(trace(task="a", wf="w1"))
        prov.add_trace(trace(task="b", wf="w2"))
        assert len(prov.export_rows()) == 2
        rows = prov.export_rows(workflow="w1")
        assert len(rows) == 1 and rows[0]["task"] == "a"

    def test_failure_rate(self):
        prov = ProvenanceStore()
        assert prov.failure_rate() == 0.0
        prov.add_trace(trace(ok=True))
        prov.add_trace(trace(ok=False))
        assert prov.failure_rate() == 0.5

    def test_node_events(self):
        prov = ProvenanceStore()
        prov.add_node_event(5.0, "n-0", "down")
        assert prov.node_events[0].state == "down"
