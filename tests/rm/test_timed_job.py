"""The batch scheduler's duration-job handle (``_TimedJob``).

A ``duration=`` job runs off one kernel timer held by a handle, not a
``run:`` process; a ``work=`` job keeps its ``_run_job`` process.  The
handle must reproduce the reference race (``_direct_timers = False``)
at the edges where event order decides the outcome: a node failure at
the job's end instant, and a payload that ends exactly at its walltime.
"""

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.cluster.node import NodeFailureCause
from repro.rm import BatchScheduler, Job, JobState, ResourceRequest
from repro.simkernel import Environment


class ReferenceBatch(BatchScheduler):
    """Every job runs as a ``run:`` process racing its walltime."""

    _direct_timers = False


class RecordingEnv(Environment):
    """Records the generator of every process it starts."""

    def __init__(self):
        super().__init__()
        self.started = []

    def process(self, generator, name=None):
        self.started.append((generator.__qualname__, name))
        return super().process(generator, name=name)


def world(sched_cls=BatchScheduler, nodes=2):
    env = RecordingEnv()
    cluster = Cluster(env, pools=[(NodeSpec("n", cores=8, memory_gb=64), nodes)])
    return env, cluster, sched_cls(env, cluster)


def job(duration=10.0, walltime_s=100.0, nodes=1, **kw):
    return Job(
        request=ResourceRequest(nodes=nodes, cores_per_node=8, walltime_s=walltime_s),
        duration=duration,
        **kw,
    )


def outcome(j):
    return (j.state, j.failure_cause, j.start_time, j.end_time)


def run_jobs(sched_cls, specs, fault_at=None, fault_after_start=False):
    """Submit one job per spec at t=0 and run; optionally fail node
    ``n-00000`` at ``fault_at``.  The injector is built before the run,
    so its timer is armed before the jobs'; with ``fault_after_start``
    it is built in the same instant but one dispatch round after the
    grant, so its timer is armed after theirs."""
    env, cluster, sched = world(sched_cls)
    jobs = [job(**spec) for spec in specs]
    schedule = [(fault_at, "n-00000")] if fault_at is not None else []

    def driver():
        for j in jobs:
            sched.submit(j)  # wakes the scheduler's pass at t=0 ...
        yield env.timeout(0)  # ... which is dispatched before this resume
        if fault_after_start:
            FaultInjector(env, cluster, schedule=schedule, downtime=None)

    if not fault_after_start:
        FaultInjector(env, cluster, schedule=schedule, downtime=None)
    env.process(driver(), name="driver")
    env.run()
    return env, cluster, jobs


class TestNoProcessPerJob:
    def test_duration_job_starts_no_run_process(self):
        env, cluster, sched = world()
        j = sched.submit(job())
        env.run()
        assert j.state == JobState.COMPLETED
        assert not [s for s in env.started if s[1] == f"run:{j.job_id}"]
        assert "BatchScheduler._run_job" not in {q for q, _ in env.started}

    def test_work_job_keeps_its_run_process(self):
        env, cluster, sched = world()

        def work(env, job, nodes):
            yield env.timeout(4.0)

        j = sched.submit(
            Job(request=ResourceRequest(cores_per_node=8), work=work)
        )
        env.run()
        assert j.state == JobState.COMPLETED and j.end_time == 4.0
        assert ("BatchScheduler._run_job", f"run:{j.job_id}") in env.started

    def test_handle_is_the_live_occupant(self):
        env, cluster, sched = world()
        j = sched.submit(job(duration=10.0))
        seen = []

        def probe():
            yield env.timeout(5.0)
            handle = cluster.node("n-00000").occupants[j.job_id]
            seen.append((handle.name, handle.is_alive))
            yield j.completion
            seen.append(handle.is_alive)

        env.process(probe())
        env.run()
        assert seen == [(f"run:{j.job_id}", True), False]


class TestOccupantsReleased:
    def assert_vacated(self, cluster):
        assert all(not n.occupants for n in cluster.nodes)
        assert all(not n.allocations for n in cluster.nodes)

    def test_after_completion(self):
        env, cluster, (j,) = run_jobs(BatchScheduler, [dict(nodes=2)])
        assert j.state == JobState.COMPLETED
        self.assert_vacated(cluster)

    def test_after_walltime_kill(self):
        env, cluster, (j,) = run_jobs(
            BatchScheduler, [dict(duration=50.0, walltime_s=20.0, nodes=2)]
        )
        assert (j.state, j.failure_cause, j.end_time) == (
            JobState.FAILED, "walltime", 20.0
        )
        self.assert_vacated(cluster)

    def test_after_node_failure(self):
        env, cluster, (j,) = run_jobs(
            BatchScheduler, [dict(duration=50.0, nodes=2)], fault_at=5.0
        )
        assert j.state == JobState.FAILED
        assert j.failure_cause == NodeFailureCause("n-00000")
        assert j.end_time == 5.0
        # The surviving node is vacated too, not only the dead one.
        self.assert_vacated(cluster)


class TestSameAsReference:
    """Tie cases, against the process race of ``ReferenceBatch``."""

    def test_node_failure_at_the_end_instant(self):
        """The injector's timer was armed before the job's, so the
        failure is dispatched first and kills the job in both shapes."""
        runs = [
            run_jobs(cls, [dict(duration=10.0)], fault_at=10.0)
            for cls in (BatchScheduler, ReferenceBatch)
        ]
        (_, _, (fast,)), (_, _, (ref,)) = runs
        assert outcome(fast) == outcome(ref) == (
            JobState.FAILED, NodeFailureCause("n-00000"), 0.0, 10.0
        )
        for _, cluster, _ in runs:
            assert all(not n.occupants for n in cluster.nodes)

    def test_node_failure_armed_after_the_job_at_its_end_instant(self):
        """The documented exactness limit: the handle ends the job at
        its timer, before a same-instant failure armed later; the race
        ends it two dispatch rounds later, after that failure."""
        (_, c_fast, (fast,)), (_, _, (ref,)) = [
            run_jobs(
                cls, [dict(duration=10.0)], fault_at=10.0, fault_after_start=True
            )
            for cls in (BatchScheduler, ReferenceBatch)
        ]
        assert outcome(fast) == (JobState.COMPLETED, None, 0.0, 10.0)
        assert outcome(ref) == (
            JobState.FAILED, NodeFailureCause("n-00000"), 0.0, 10.0
        )
        assert all(not n.occupants for n in c_fast.nodes)

    def test_payload_ending_at_walltime_completes(self):
        (_, _, (fast,)), (_, _, (ref,)) = [
            run_jobs(cls, [dict(duration=10.0, walltime_s=10.0)])
            for cls in (BatchScheduler, ReferenceBatch)
        ]
        assert outcome(fast) == outcome(ref) == (
            JobState.COMPLETED, None, 0.0, 10.0
        )

    def test_payload_past_walltime_is_killed(self):
        (_, _, (fast,)), (_, _, (ref,)) = [
            run_jobs(cls, [dict(duration=10.5, walltime_s=10.0)])
            for cls in (BatchScheduler, ReferenceBatch)
        ]
        assert outcome(fast) == outcome(ref) == (
            JobState.FAILED, "walltime", 0.0, 10.0
        )

    def test_failure_mid_run_ends_the_job_once(self):
        """The interrupt tombstones the timer: the job does not end a
        second time when the orphaned timer fires."""
        (_, c_fast, (fast,)), (_, _, (ref,)) = [
            run_jobs(cls, [dict(duration=10.0)], fault_at=3.0)
            for cls in (BatchScheduler, ReferenceBatch)
        ]
        assert outcome(fast) == outcome(ref)
        assert fast.end_time == 3.0
        assert all(not n.allocations for n in c_fast.nodes)


class TestResilient:
    def test_survives_one_node_dying(self):
        runs = [
            run_jobs(
                cls, [dict(duration=10.0, nodes=2, resilient=True)], fault_at=4.0
            )
            for cls in (BatchScheduler, ReferenceBatch)
        ]
        (_, cluster, (fast,)), (_, _, (ref,)) = runs
        assert outcome(fast) == outcome(ref) == (
            JobState.COMPLETED, None, 0.0, 10.0
        )
        assert [n.id for n in fast.nodes] == ["n-00001"]
        assert all(not n.occupants for n in cluster.nodes)
