"""A ``run_stage`` wave ends on a countdown, not an ``AllOf`` over one
terminal event per task.

The countdown must resume the stage exactly where the ``AllOf`` did: at
the last task's end instant, two dispatch rounds after that task's
timer.  The pinned logs, times and attempts below were recorded with
the ``AllOf`` implementation; only the event count differs from it.
"""

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.cluster.node import NodeFailureCause
from repro.entk import (
    AgentConfig,
    AppManager,
    EnTask,
    PilotAgent,
    Pipeline,
    ResourceDescription,
    Stage,
    TaskState,
)
from repro.obs import enable_tracing
from repro.obs.tracer import SpanSink
from repro.rm import BatchScheduler
from repro.simkernel import Environment
from tests.entk.test_agent import make_agent


class _TaskEnds(SpanSink):
    """Log ``("end", task, t)`` as each ``entk.task`` span finishes."""

    def __init__(self, log):
        self.log = log

    def on_finish(self, span):
        if span.category == "entk.task":
            self.log.append(("end", span.name, span.end))


def test_stage_drops_one_event_per_task_but_one():
    """200 tasks in one wave: 199 fewer dispatched events than the
    ``AllOf`` path (1,209 there), same end and resume instant.  Fails
    with one terminal event per task."""
    env = Environment()
    _, agent = make_agent(env, n_nodes=16, bootstrap_s=0.0)
    tasks = [EnTask(duration=10 + (i % 7), name=f"t{i:03d}") for i in range(200)]
    resumed = []

    def driver(env):
        done, failed = yield from agent.run_stage(tasks)
        resumed.append((env.now, len(done), len(failed)))

    env.process(driver(env))
    env.run()
    assert resumed == [(168.31, 200, 0)]
    assert max(t.end_time for t in tasks) == 168.31
    assert env.scheduled_events == 1209 - 199


def test_pipelines_sharing_an_agent_resume_at_their_own_last_end():
    """Two pipelines on one agent.  Stage 0 of both ends at 27.875 on
    three same-instant task ends; each pipeline resumes after all of
    them, in the order its last task ended, and two dispatch rounds
    after the ends (a bystander hopping ``timeout(0)`` at that instant
    brackets the resumes).  The log is the ``AllOf`` path's; passes
    there too."""
    env = Environment()
    log = []
    enable_tracing(env, sink=_TaskEnds(log))
    cluster = Cluster(
        env, pools=[(NodeSpec("n", cores=4, gpus=0, memory_gb=64), 6)]
    )
    agent = PilotAgent(
        env,
        cluster.nodes,
        AgentConfig(schedule_rate=8.0, launch_rate=4.0, bootstrap_s=2.0),
    )
    durations = {
        "a": [[24.5, 10, 19.75], [5, 15]],
        "b": [[10, 10, 25, 5], [12, 12]],
    }

    def pipeline(env, key):
        for idx, stage in enumerate(durations[key]):
            tasks = [
                EnTask(duration=d, name=f"{key}{idx}-{i}")
                for i, d in enumerate(stage)
            ]
            yield from agent.run_stage(tasks)
            log.append(("resume", f"{key}{idx}", env.now))

    def bystander(env):
        yield env.timeout(27.875)
        for i in range(3):
            yield env.timeout(0)
            log.append(("tick", i, env.now))

    env.process(pipeline(env, "a"))
    env.process(pipeline(env, "b"))
    env.process(bystander(env))
    env.run()
    assert log == [
        ("end", "b0-3", 8.125),
        ("end", "b0-0", 12.375),
        ("end", "b0-1", 12.625),
        ("end", "a0-1", 13.625),
        ("end", "b0-2", 27.875),
        ("end", "a0-0", 27.875),
        ("end", "a0-2", 27.875),
        ("tick", 0, 27.875),
        ("tick", 1, 27.875),
        ("resume", "b0", 27.875),
        ("resume", "a0", 27.875),
        ("tick", 2, 27.875),
        ("end", "a1-0", 33.75),
        ("end", "b1-0", 40.25),
        ("end", "b1-1", 40.5),
        ("resume", "b1", 40.5),
        ("end", "a1-1", 44.0),
        ("resume", "a1", 44.0),
    ]


def test_retry_wave_ends_on_its_last_retried_task():
    """Two tasks fail on a downed node (one killed, one launched onto it
    before its second strike) and rerun in a second wave.  That wave
    starts when the first wave's last task ends and the stage resumes
    when the last retried task ends.  Values are the ``AllOf`` path's;
    passes there too."""
    env = Environment()
    cluster = Cluster(
        env, pools=[(NodeSpec("n", cores=4, gpus=0, memory_gb=64), 4)]
    )
    agent = PilotAgent(
        env,
        cluster.nodes,
        AgentConfig(
            schedule_rate=64.0,
            launch_rate=32.0,
            bootstrap_s=0.0,
            fail_detect_s=0.5,
            node_strikes=2,
        ),
    )
    tasks = [EnTask(duration=20 + i, name=f"t{i}") for i in range(8)]
    FaultInjector(env, cluster, schedule=[(3.0, "n-00002")], downtime=None)
    resumed = []

    def driver(env):
        done, failed = yield from agent.run_stage(tasks)
        resumed.append((env.now, len(done), len(failed)))

    env.process(driver(env))
    env.run()
    assert agent.failures == [
        ("t1", 3.0, NodeFailureCause("n-00002")),
        ("t4", 3.5, "dead-node:n-00002"),
    ]
    assert [(t.name, t.attempts, t.submit_time, t.end_time) for t in tasks] == [
        ("t0", 1, 0.0, 20.046875),
        ("t1", 2, 50.140625, 71.1875),
        ("t2", 1, 0.0, 22.109375),
        ("t3", 1, 0.0, 23.140625),
        ("t4", 2, 50.140625, 74.21875),
        ("t5", 1, 0.0, 45.046875),
        ("t6", 1, 0.0, 48.109375),
        ("t7", 1, 0.0, 50.140625),
    ]
    assert resumed == [(74.21875, 8, 0)]


class TestShutdownMidWave:
    def test_stranded_wave_never_ends(self):
        """A shutdown fails the in-flight tasks, but a task still queued
        in the agent never counts down: the wave's ``done`` stays
        untriggered and the stage does not resume.  Fails at the
        ``AllOf`` path only for want of ``task._wave``."""
        env = Environment()
        cluster = Cluster(
            env, pools=[(NodeSpec("n", cores=4, gpus=0, memory_gb=64), 2)]
        )
        agent = PilotAgent(
            env,
            cluster.nodes,
            AgentConfig(schedule_rate=256.0, launch_rate=128.0, bootstrap_s=0.0),
        )
        tasks = [EnTask(duration=20, name=f"t{i}") for i in range(5)]
        resumed = []

        def driver(env):
            yield from agent.run_stage(tasks)
            resumed.append(env.now)

        def killer(env):
            yield env.timeout(30)
            agent.shutdown(cause="walltime")

        env.process(driver(env))
        env.process(killer(env))
        env.run()
        assert resumed == []
        assert [t.state for t in tasks] == [TaskState.DONE] * 2 + [
            TaskState.FAILED
        ] * 2 + [TaskState.SCHEDULED]
        assert agent.failures == [("t2", 30.0, "walltime"), ("t3", 30.0, "walltime")]
        wave = tasks[0]._wave
        assert all(t._wave is wave for t in tasks)
        assert wave.left == 1
        assert not wave.done.triggered

    def test_followup_pilot_finishes_the_stage(self):
        """The AppManager's second pilot reruns the stranded stage-1
        tasks and then stage 2.  Values are the ``AllOf`` path's; passes
        there too."""
        env = Environment()
        cluster = Cluster(
            env, pools=[(NodeSpec("n", cores=4, gpus=0, memory_gb=64), 4)]
        )
        am = AppManager(
            env,
            BatchScheduler(env, cluster),
            ResourceDescription(
                nodes=4,
                walltime_s=60,
                agent=AgentConfig(
                    schedule_rate=256.0, launch_rate=128.0, bootstrap_s=5.0
                ),
                max_jobs=5,
            ),
        )
        pipeline = Pipeline(name="p")
        for name, count in (("s1", 10), ("s2", 4)):
            stage = Stage(name=name)
            stage.add_tasks(
                [EnTask(duration=20, name=f"{name}t{i}") for i in range(count)]
            )
            pipeline.add_stage(stage)
        result = am.run([pipeline])
        env.run(until=result.done)
        assert result.succeeded
        assert result.job_sizes == [4, 4]
        assert [p.tasks_failed_events for p in result.profiles] == [2, 0]
        assert env.now == 105.0546875
        ends = [(t.name, t.attempts, t.end_time) for t in pipeline.all_tasks()]
        assert ends == [
            ("s1t0", 1, 25.01171875),
            ("s1t1", 1, 25.01953125),
            ("s1t2", 1, 25.02734375),
            ("s1t3", 1, 25.03515625),
            ("s1t4", 1, 45.01171875),
            ("s1t5", 1, 45.01953125),
            ("s1t6", 1, 45.02734375),
            ("s1t7", 1, 45.03515625),
            ("s1t8", 2, 85.01171875),
            ("s1t9", 2, 85.01953125),
            ("s2t0", 1, 105.03125),
            ("s2t1", 1, 105.0390625),
            ("s2t2", 1, 105.046875),
            ("s2t3", 1, 105.0546875),
        ]
