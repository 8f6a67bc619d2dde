"""Tests for the WMS engines: task-wise and big-worker execution."""

import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.core import TaskSpec, Workflow
from repro.data import File
from repro.engines import AirflowLikeEngine, ArgoLikeEngine, NextflowLikeEngine
from repro.obs import enable_tracing
from repro.resilience import NodeHealth, RetryPolicy
from repro.rm import KubeScheduler
from repro.simkernel import Environment


def t(name, runtime=10, inputs=(), outputs=(), cores=1):
    return TaskSpec(
        name,
        runtime_s=runtime,
        cores=cores,
        inputs=inputs,
        outputs=tuple(File(o, 100) for o in outputs),
    )


def diamond():
    wf = Workflow("diamond")
    wf.add_task(t("src", 10, outputs=("s",)))
    wf.add_task(t("left", 20, inputs=("s",), outputs=("l",)))
    wf.add_task(t("right", 30, inputs=("s",), outputs=("r",)))
    wf.add_task(t("sink", 10, inputs=("l", "r")))
    return wf


def world(env, nodes=2, cores=4):
    cluster = Cluster(env, pools=[(NodeSpec("n", cores=cores, memory_gb=32), nodes)])
    return cluster, KubeScheduler(env, cluster)


class TestNextflowLikeEngine:
    def test_diamond_executes_in_dependency_order(self):
        env = Environment()
        _, sched = world(env)
        engine = NextflowLikeEngine(env, sched)
        run = engine.run(diamond())
        env.run(until=run.done)
        assert run.succeeded
        rec = run.records
        assert rec["src"].end_time <= rec["left"].start_time
        assert rec["src"].end_time <= rec["right"].start_time
        assert max(rec["left"].end_time, rec["right"].end_time) <= rec["sink"].start_time
        # Left and right overlap (2 nodes x 4 cores available).
        assert rec["left"].start_time == rec["right"].start_time

    def test_makespan_matches_critical_path_when_unconstrained(self):
        env = Environment()
        _, sched = world(env, nodes=4)
        engine = NextflowLikeEngine(env, sched)
        run = engine.run(diamond())
        env.run(until=run.done)
        assert run.makespan == pytest.approx(10 + 30 + 10)

    def test_serializes_on_tiny_cluster(self):
        env = Environment()
        _, sched = world(env, nodes=1, cores=1)
        engine = NextflowLikeEngine(env, sched)
        run = engine.run(diamond())
        env.run(until=run.done)
        assert run.succeeded
        assert run.makespan == pytest.approx(10 + 20 + 30 + 10)

    def test_records_node_placement(self):
        env = Environment()
        _, sched = world(env)
        engine = NextflowLikeEngine(env, sched)
        run = engine.run(diamond())
        env.run(until=run.done)
        assert all(r.node_id for r in run.records.values())

    def test_retry_on_node_failure(self):
        env = Environment()
        tracer = enable_tracing(env)
        cluster, sched = world(env, nodes=2, cores=4)
        engine = NextflowLikeEngine(env, sched, retry_policy=RetryPolicy(max_retries=2))
        wf = Workflow("lone")
        wf.add_task(t("only", runtime=100))
        run = engine.run(wf)
        # Kill whichever node the task landed on (best-fit: first node).
        FaultInjector(env, cluster, schedule=[(50.0, "n-00000")], downtime=10.0)
        env.run(until=run.done)
        assert run.succeeded
        assert run.records["only"].attempts == 2
        assert run.retried_tasks() == ["only"]
        # The retry is visible in the trace as a second attempt span.
        spans = tracer.query().spans(category="engine.task", name="only")
        assert [s.tags["attempt"] for s in spans] == [1, 2]

    def test_aborts_after_max_retries(self):
        env = Environment()
        cluster, sched = world(env, nodes=1, cores=4)
        engine = NextflowLikeEngine(env, sched, retry_policy=RetryPolicy(max_retries=0))
        wf = Workflow("lone")
        wf.add_task(t("only", runtime=100))
        run = engine.run(wf)
        FaultInjector(env, cluster, schedule=[(50.0, "n-00000")], downtime=1000.0)
        env.run(until=run.done)
        assert not run.succeeded
        assert "error" in run.stats
        assert run.records["only"].state == "failed"

    def test_invalid_retry_count(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)


class TestEngineInstalledHealth:
    """A health object handed to the engine, not the scheduler, must
    still wake the scheduler when a quarantine ends."""

    @staticmethod
    def lone_task_on_dying_node(install_on_scheduler):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=32), 1)])
        health = NodeHealth(env, strikes=1, probation_s=50)
        sched = KubeScheduler(
            env, cluster, node_health=health if install_on_scheduler else None
        )
        engine = NextflowLikeEngine(env, sched, node_health=health)
        wf = Workflow("lone")
        wf.add_task(t("only", runtime=20))
        run = engine.run(wf)
        FaultInjector(env, cluster, schedule=[(5.0, "n-00000")], downtime=10.0)
        env.run()
        return run, health

    @pytest.mark.parametrize("install_on_scheduler", [False, True])
    def test_retry_starts_when_probation_ends(self, install_on_scheduler):
        run, _ = self.lone_task_on_dying_node(install_on_scheduler)
        # Killed at 5 -> quarantined for 50 s -> retry at 55 for 20 s.
        assert run.succeeded is True
        assert run.records["only"].start_time == pytest.approx(55)
        assert run.t_done == pytest.approx(75)

    def test_same_health_subscribes_once(self):
        _, health = self.lone_task_on_dying_node(install_on_scheduler=True)
        assert len(health._release_watchers) == 1


class TestArgoLikeEngine:
    def test_pod_overhead_inflates_makespan(self):
        env1 = Environment()
        _, sched1 = world(env1, nodes=4)
        nf_run = NextflowLikeEngine(env1, sched1).run(diamond())
        env1.run(until=nf_run.done)

        env2 = Environment()
        _, sched2 = world(env2, nodes=4)
        argo_run = ArgoLikeEngine(env2, sched2, pod_overhead_s=3.0).run(diamond())
        env2.run(until=argo_run.done)

        # Three levels of depth x 3s overhead.
        assert argo_run.makespan == pytest.approx(nf_run.makespan + 9.0)


class TestAirflowLikeEngine:
    def test_executes_workflow(self):
        env = Environment()
        _, sched = world(env, nodes=2, cores=4)
        engine = AirflowLikeEngine(env, sched)
        run = engine.run(diamond())
        env.run(until=run.done)
        assert run.succeeded
        rec = run.records
        assert rec["src"].end_time <= rec["left"].start_time

    def test_wastage_reported_and_positive(self):
        env = Environment()
        _, sched = world(env, nodes=2, cores=4)
        engine = AirflowLikeEngine(env, sched)
        run = engine.run(diamond())
        env.run(until=run.done)
        stats = run.stats
        assert stats["workers"] == 2
        assert stats["requested_core_seconds"] > stats["used_core_seconds"]
        # The diamond has a merge point; big workers idle there.
        assert 0 < stats["wastage"] < 1

    def test_worker_count_override(self):
        env = Environment()
        _, sched = world(env, nodes=4, cores=4)
        engine = AirflowLikeEngine(env, sched, workers=1)
        run = engine.run(diamond())
        env.run(until=run.done)
        assert run.succeeded
        assert run.stats["workers"] == 1
        # One worker serializes everything.
        assert run.makespan >= 70

    def test_big_workers_block_other_pods(self):
        """The §3.2 complaint: workers hold nodes even when idle."""
        env = Environment()
        cluster, sched = world(env, nodes=1, cores=4)
        engine = AirflowLikeEngine(env, sched)
        run = engine.run(diamond())
        from repro.rm import Pod

        intruder = Pod(cores=4, memory_gb=1, duration=1, name="intruder")

        def submit_later(env):
            yield env.timeout(5)
            sched.submit(intruder)

        env.process(submit_later(env))
        env.run(until=run.done)
        env.run()
        # The intruder could not start until the workflow released its
        # worker, despite the worker being mostly idle.
        assert intruder.start_time >= run.t_done - 1e-9
