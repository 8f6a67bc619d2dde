"""Tests for the batch scheduler: FIFO, backfill, walltime, faults."""

import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.resilience import NodeHealth
from repro.rm import BatchScheduler, Job, JobState, ResourceRequest
from repro.simkernel import Environment


def small_cluster(env, nodes=4, cores=8, speed=1.0):
    return Cluster(env, pools=[(NodeSpec("n", cores=cores, memory_gb=64, speed=speed), nodes)])


def run_all(env, sched, jobs):
    for j in jobs:
        sched.submit(j)
    env.run()
    return jobs


class TestRequestValidation:
    def test_bad_requests(self):
        with pytest.raises(ValueError):
            ResourceRequest(nodes=0)
        with pytest.raises(ValueError):
            ResourceRequest(cores_per_node=0)
        with pytest.raises(ValueError):
            ResourceRequest(walltime_s=0)

    def test_job_needs_exactly_one_payload(self):
        req = ResourceRequest()
        with pytest.raises(ValueError):
            Job(request=req)
        with pytest.raises(ValueError):
            Job(request=req, duration=1, work=lambda e, j, n: iter(()))


class TestBasicScheduling:
    def test_single_job_runs(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env))
        job = Job(request=ResourceRequest(nodes=2, walltime_s=100), duration=50)
        run_all(env, sched, [job])
        assert job.state == JobState.COMPLETED
        assert job.start_time == 0
        assert job.end_time == 50
        assert job.nodes == []  or len(job.nodes) == 2  # nodes recorded
        assert job.runtime == 50

    def test_jobs_queue_when_cluster_full(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=2), backfill=False)
        j1 = Job(request=ResourceRequest(nodes=2, walltime_s=100), duration=60)
        j2 = Job(request=ResourceRequest(nodes=2, walltime_s=100), duration=60)
        run_all(env, sched, [j1, j2])
        assert j1.start_time == 0
        assert j2.start_time == 60
        assert j2.queue_wait == 60

    def test_fifo_no_backfill_head_blocks(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=4), backfill=False)
        j1 = Job(request=ResourceRequest(nodes=3, walltime_s=100), duration=50)
        j2 = Job(request=ResourceRequest(nodes=4, walltime_s=100), duration=10)  # head blocks
        j3 = Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=10)
        run_all(env, sched, [j1, j2, j3])
        # Without backfill j3 waits behind j2 even though a node is free.
        assert j3.start_time >= j2.start_time

    def test_backfill_lets_small_job_jump(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=4), backfill=True)
        j1 = Job(request=ResourceRequest(nodes=3, walltime_s=100), duration=100)
        j2 = Job(request=ResourceRequest(nodes=4, walltime_s=100), duration=10)
        # j3 fits on the free node and finishes before j1's walltime end.
        j3 = Job(request=ResourceRequest(nodes=1, walltime_s=50), duration=10)
        run_all(env, sched, [j1, j2, j3])
        assert j3.start_time == 0  # backfilled
        assert j2.start_time == 100  # waits for j1

    def test_backfill_never_delays_head(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=2), backfill=True)
        j1 = Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=100)
        j2 = Job(request=ResourceRequest(nodes=2, walltime_s=100), duration=10)
        # j3 would finish AFTER j1's walltime -> would delay j2 -> no backfill.
        j3 = Job(request=ResourceRequest(nodes=1, walltime_s=200), duration=150)
        run_all(env, sched, [j1, j2, j3])
        assert j2.start_time == pytest.approx(100)
        assert j3.start_time >= j2.start_time

    def test_cancel_queued_job(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=1))
        j1 = Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=50)
        j2 = Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=50)
        sched.submit(j1)
        sched.submit(j2)

        def canceller(env):
            yield env.timeout(10)
            sched.cancel(j2)

        env.process(canceller(env))
        env.run()
        assert j2.state == JobState.CANCELLED
        assert j1.state == JobState.COMPLETED

    def test_cancel_wakes_the_jobs_behind(self):
        """Cancelling a blocked head lets the next job start at once,
        not at the next completion."""
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=2), backfill=False)
        x = Job(request=ResourceRequest(nodes=1, walltime_s=200), duration=100)
        head = Job(request=ResourceRequest(nodes=2, walltime_s=200), duration=10)
        j = Job(request=ResourceRequest(nodes=1, walltime_s=200), duration=10)
        for job in (x, head, j):
            sched.submit(job)

        def canceller(env):
            yield env.timeout(10)
            sched.cancel(head)

        env.process(canceller(env))
        env.run()
        assert head.state == JobState.CANCELLED
        assert j.start_time == pytest.approx(10)


class TestQuarantine:
    def test_reservation_ignores_quarantined_free_nodes(self):
        """EASY backfill: a quarantined free node cannot serve the head,
        so it must not make the head look startable now and block a
        job that fits on the healthy node."""
        env = Environment()
        health = NodeHealth(env, strikes=1, probation_s=100)
        health.record_failure("n-00000")
        sched = BatchScheduler(env, small_cluster(env, nodes=2), node_health=health)
        head = Job(request=ResourceRequest(nodes=2, walltime_s=200), duration=10)
        small = Job(request=ResourceRequest(nodes=1, walltime_s=20), duration=5)
        run_all(env, sched, [head, small])
        assert small.start_time == 0
        assert [n.id for n in small.nodes] == ["n-00001"]
        assert head.start_time == pytest.approx(100)


class TestWalltime:
    def test_walltime_kills_job(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env))
        job = Job(request=ResourceRequest(nodes=1, walltime_s=30), duration=100)
        run_all(env, sched, [job])
        assert job.state == JobState.FAILED
        assert job.failure_cause == "walltime"
        assert job.end_time == pytest.approx(30)

    def test_walltime_frees_nodes_for_next_job(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=1))
        j1 = Job(request=ResourceRequest(nodes=1, walltime_s=30), duration=1000)
        j2 = Job(request=ResourceRequest(nodes=1, walltime_s=30), duration=10)
        run_all(env, sched, [j1, j2])
        assert j2.start_time == pytest.approx(30)
        assert j2.state == JobState.COMPLETED


class TestHeterogeneity:
    def test_duration_scales_with_node_speed(self):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("fast", cores=8, speed=2.0), 1)])
        sched = BatchScheduler(env, cluster)
        job = Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=50)
        run_all(env, sched, [job])
        assert job.end_time == pytest.approx(25)  # 50 / 2.0

    def test_multi_node_job_limited_by_slowest(self):
        env = Environment()
        cluster = Cluster(
            env,
            pools=[
                (NodeSpec("slow", cores=8, speed=1.0), 1),
                (NodeSpec("fast", cores=8, speed=4.0), 1),
            ],
        )
        sched = BatchScheduler(env, cluster)
        job = Job(request=ResourceRequest(nodes=2, walltime_s=100), duration=40)
        run_all(env, sched, [job])
        assert job.end_time == pytest.approx(40)  # slowest node dominates


class TestFairShare:
    """There is no fair-share policy: a flood from one user runs in
    submit order ahead of a later user's job."""

    def test_without_fair_share_bob_waits(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env, nodes=1))
        alice = [
            Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=10, user="alice")
            for _ in range(5)
        ]
        bob = Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=10, user="bob")
        for j in alice:
            sched.submit(j)
        sched.submit(bob)
        env.run()
        assert bob.start_time == pytest.approx(50)


class TestFaultHandling:
    def test_node_failure_fails_job(self):
        env = Environment()
        cluster = small_cluster(env, nodes=2)
        sched = BatchScheduler(env, cluster)
        job = Job(request=ResourceRequest(nodes=2, walltime_s=1000), duration=500)
        sched.submit(job)
        FaultInjector(env, cluster, schedule=[(100.0, "n-00000")], downtime=None)
        env.run()
        assert job.state == JobState.FAILED
        assert job.failure_cause is not None
        assert job.end_time == pytest.approx(100)

    def test_work_payload_exception_fails_job(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env))

        def bad_work(env, job, nodes):
            yield env.timeout(5)
            raise RuntimeError("numerical blow-up")

        job = Job(request=ResourceRequest(nodes=1, walltime_s=100), work=bad_work)
        run_all(env, sched, [job])
        assert job.state == JobState.FAILED
        assert isinstance(job.failure_cause, RuntimeError)

    def test_custom_work_payload_runs(self):
        env = Environment()
        sched = BatchScheduler(env, small_cluster(env))
        seen = {}

        def work(env, job, nodes):
            seen["nodes"] = len(nodes)
            yield env.timeout(7)

        job = Job(request=ResourceRequest(nodes=3, walltime_s=100), work=work)
        run_all(env, sched, [job])
        assert job.state == JobState.COMPLETED
        assert seen["nodes"] == 3
        assert job.end_time == pytest.approx(7)


class TestAccounting:
    def test_utilization_tracked(self):
        env = Environment()
        cluster = small_cluster(env, nodes=2, cores=4)
        cluster.enable_tracking()
        sched = BatchScheduler(env, cluster)
        job = Job(request=ResourceRequest(nodes=1, walltime_s=100), duration=10)
        run_all(env, sched, [job])
        # 1 of 2 nodes busy for the whole span.
        assert cluster.core_utilization(0, 10) == pytest.approx(0.5)
