"""Fault behaviour of the Airflow-like big-worker engine."""

import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.core import TaskSpec, Workflow
from repro.data import File
from repro.engines import AirflowLikeEngine
from repro.resilience import RetryPolicy
from repro.rm import KubeScheduler
from repro.simkernel import Environment


def wide_workflow(width=6, runtime=60):
    wf = Workflow("wide")
    src = File("s", 1)
    wf.add_task(TaskSpec("src", runtime_s=5, outputs=(src,)))
    for i in range(width):
        wf.add_task(TaskSpec(f"w{i}", runtime_s=runtime, inputs=(src.name,)))
    return wf


class TestWorkerDeath:
    def test_surviving_workers_finish_the_workflow(self):
        """A node failure kills one big worker mid-task; the task is
        requeued and the surviving workers complete everything."""
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=32), 3)])
        sched = KubeScheduler(env, cluster)
        engine = AirflowLikeEngine(env, sched, retry_policy=RetryPolicy(max_retries=3))
        run = engine.run(wide_workflow())
        FaultInjector(env, cluster, schedule=[(30.0, "n-00000")], downtime=None)
        env.run(until=run.done)
        assert run.succeeded
        retried = [r for r in run.records.values() if r.attempts > 1]
        assert retried  # the in-flight task was resubmitted
        # Nothing ran on the dead node after the failure.
        for r in run.records.values():
            if r.node_id == "n-00000":
                assert r.end_time <= 30.0 + 1e-9

    def test_wastage_accounting_survives_failure(self):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=32), 3)])
        sched = KubeScheduler(env, cluster)
        engine = AirflowLikeEngine(env, sched, retry_policy=RetryPolicy(max_retries=3))
        run = engine.run(wide_workflow())
        FaultInjector(env, cluster, schedule=[(30.0, "n-00001")], downtime=None)
        env.run(until=run.done)
        stats = run.stats
        assert stats["requested_core_seconds"] > 0
        assert 0 <= stats["wastage"] <= 1
