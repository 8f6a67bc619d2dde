"""Tests for the pilot agent: throughput, concurrency, failures."""

import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.cluster.node import NodeFailureCause
from repro.entk import AgentConfig, EnTask, PilotAgent, TaskState
from repro.obs import enable_tracing
from repro.resilience import RetryPolicy
from repro.simkernel import Environment
from tests.entk.test_executor_differential import _as_work


def make_agent(env, n_nodes=8, cores=4, gpus=0, **cfg):
    cluster = Cluster(
        env, pools=[(NodeSpec("n", cores=cores, gpus=gpus, memory_gb=64), n_nodes)]
    )
    defaults = dict(
        schedule_rate=100.0, launch_rate=50.0, bootstrap_s=5.0, fail_detect_s=1.0
    )
    defaults.update(cfg)
    return cluster, PilotAgent(env, cluster.nodes, AgentConfig(**defaults))


def run_stage(env, agent, tasks):
    holder = {}

    def driver(env):
        holder["result"] = yield from agent.run_stage(tasks)

    env.process(driver(env))
    env.run()
    return holder["result"]


class TestConfigValidation:
    def test_bad_rates(self):
        with pytest.raises(ValueError):
            AgentConfig(schedule_rate=0)
        with pytest.raises(ValueError):
            AgentConfig(launch_rate=-1)
        with pytest.raises(ValueError):
            AgentConfig(bootstrap_s=-1)
        with pytest.raises(ValueError):
            AgentConfig(node_strikes=0)

    def test_empty_agent_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            PilotAgent(env, [])


class TestBasicExecution:
    def test_tasks_complete(self):
        env = Environment()
        _, agent = make_agent(env)
        tasks = [EnTask(duration=10) for _ in range(4)]
        done, failed = run_stage(env, agent, tasks)
        assert len(done) == 4 and not failed
        assert all(t.state == TaskState.DONE for t in tasks)
        assert agent.done_count.current == 4

    def test_bootstrap_delays_first_task(self):
        env = Environment()
        _, agent = make_agent(env, bootstrap_s=20.0)
        tasks = [EnTask(duration=1)]
        run_stage(env, agent, tasks)
        assert tasks[0].start_time >= 20.0
        assert agent.bootstrap_overhead == 20.0

    def test_multi_node_task(self):
        env = Environment()
        _, agent = make_agent(env, n_nodes=8)
        t = EnTask(duration=10, nodes=8)
        done, failed = run_stage(env, agent, [t])
        assert done == [t]
        assert len(t.executed_on) == 8

    def test_oversized_task_rejected(self):
        env = Environment()
        _, agent = make_agent(env, n_nodes=2, cores=4)
        # Validation fires on the first step of the generator.
        with pytest.raises(ValueError):
            next(agent.run_stage([EnTask(duration=1, nodes=3)]))
        with pytest.raises(ValueError):
            next(agent.run_stage([EnTask(duration=1, cores_per_node=8)]))

    def test_concurrency_bounded_by_nodes(self):
        env = Environment()
        _, agent = make_agent(env, n_nodes=4)
        tasks = [EnTask(duration=50, nodes=1) for _ in range(12)]
        run_stage(env, agent, tasks)
        assert agent.executing.peak == 4

    def test_launch_rate_limits_ramp(self):
        env = Environment()
        # 2 tasks/s launch: 10 tasks need >= 5s to all start.
        _, agent = make_agent(
            env, n_nodes=16, launch_rate=2.0, schedule_rate=1000.0, bootstrap_s=0.0
        )
        tasks = [EnTask(duration=100) for _ in range(10)]
        run_stage(env, agent, tasks)
        starts = sorted(t.start_time for t in tasks)
        assert starts[-1] - starts[0] >= 4.0

    def test_schedule_rate_faster_than_launch(self):
        env = Environment()
        _, agent = make_agent(
            env,
            n_nodes=16,
            schedule_rate=100.0,
            launch_rate=10.0,
            bootstrap_s=0.0,
        )
        tasks = [EnTask(duration=30) for _ in range(40)]
        run_stage(env, agent, tasks)
        # Pending-launch queue must have built up (blue over orange).
        assert agent.pending_launch.peak > 10
        assert agent.scheduling_throughput(2.0) > agent.launch_throughput(2.0)

    def test_utilization_accounting(self):
        env = Environment()
        _, agent = make_agent(env, n_nodes=2, cores=4, bootstrap_s=0.0)
        # 2 tasks fully occupying both nodes for 100s.
        tasks = [EnTask(duration=100, cores_per_node=4) for _ in range(2)]
        run_stage(env, agent, tasks)
        util = agent.core_util.utilization(0, env.now)
        assert util > 0.9


class TestWorkPayload:
    def test_work_task(self):
        env = Environment()
        _, agent = make_agent(env)
        seen = {}

        def work(env, task, nodes):
            seen["nodes"] = len(nodes)
            yield env.timeout(5)

        t = EnTask(work=work, nodes=2)
        done, failed = run_stage(env, agent, [t])
        assert done == [t]
        assert seen["nodes"] == 2

    def test_work_exception_fails_then_retries(self):
        env = Environment()
        _, agent = make_agent(env)
        calls = []

        def flaky(env, task, nodes):
            calls.append(1)
            yield env.timeout(1)
            if len(calls) < 2:
                raise RuntimeError("transient")

        t = EnTask(work=flaky)
        done, failed = run_stage(env, agent, [t])
        assert done == [t]
        assert t.attempts == 2
        assert len(agent.failures) == 1


class TestNodeFailures:
    def test_task_killed_by_node_failure_is_retried(self):
        env = Environment()
        tracer = enable_tracing(env)
        cluster, agent = make_agent(env, n_nodes=4, bootstrap_s=0.0)
        tasks = [EnTask(duration=100, name=f"t{i}") for i in range(4)]
        FaultInjector(env, cluster, schedule=[(20.0, "n-00000")], downtime=None)
        done, failed = run_stage(env, agent, tasks)
        assert len(done) == 4 and not failed
        assert len(agent.failures) >= 1
        # The failed node is blacklisted after its strike.
        assert "n-00000" in agent._blacklist
        assert agent.usable_nodes == 3
        # The retry is visible in the trace as a second exec attempt.
        [retried] = [t for t in tasks if t.attempts > 1]
        spans = tracer.query().spans(category="entk.exec", tags={"task": retried.name})
        assert [s.tags["attempt"] for s in spans] == [1, 2]

    def test_detection_lag_cascades_failures(self):
        """With node_strikes > 1, a dead node keeps poisoning launches —
        the mechanism behind '8 tasks failed due to a single node
        failure' (§4.3)."""
        env = Environment()
        cluster, agent = make_agent(
            env,
            n_nodes=2,
            bootstrap_s=0.0,
            node_strikes=3,
            fail_detect_s=0.5,
            launch_rate=100.0,
            schedule_rate=1000.0,
        )
        tasks = [EnTask(duration=30, name=f"t{i}") for i in range(8)]
        FaultInjector(env, cluster, schedule=[(1.0, "n-00000")], downtime=None)
        done, failed = run_stage(env, agent, tasks)
        assert len(done) == 8 and not failed
        # Several distinct failures before blacklisting at 3 strikes.
        assert len(agent.failures) >= 3
        assert "n-00000" in agent._blacklist

    def test_exhausted_retries_reports_failed(self):
        env = Environment()
        cluster, agent = make_agent(
            env,
            n_nodes=1,
            bootstrap_s=0.0,
            retry_policy=RetryPolicy(max_retries=1),
            node_strikes=99,
        )
        # The only node dies and is never blacklisted -> all retries fail.
        FaultInjector(env, cluster, schedule=[(5.0, "n-00000")], downtime=None)
        tasks = [EnTask(duration=100, name="doomed")]
        done, failed = run_stage(env, agent, tasks)
        assert not done
        assert [t.name for t in failed] == ["doomed"]
        assert tasks[0].attempts == 2


class TestShutdown:
    def test_shutdown_fails_inflight_tasks(self):
        env = Environment()
        _, agent = make_agent(env, bootstrap_s=0.0)
        tasks = [EnTask(duration=1000, name=f"t{i}") for i in range(2)]
        holder = {}

        def driver(env):
            holder["result"] = yield from agent.run_stage(tasks)

        def killer(env):
            yield env.timeout(50)
            agent.shutdown(cause="walltime")

        env.process(driver(env))
        env.process(killer(env))
        env.run()
        assert all(t.state == TaskState.FAILED for t in tasks)
        assert all("walltime" in str(c) for t in tasks for c in t.failure_causes)

    def test_shutdown_interrupts_in_launch_order(self):
        """In-flight tasks fail in the order they were launched, not in
        the hash order of their executors."""
        env = Environment()
        _, agent = make_agent(
            env,
            n_nodes=64,
            bootstrap_s=0.0,
            schedule_rate=1e6,
            launch_rate=1e5,
        )
        tasks = [EnTask(duration=1000, name=f"t{i:02d}") for i in range(60)]

        def driver(env):
            yield from agent.run_stage(tasks)

        def killer(env):
            yield env.timeout(50)
            agent.shutdown(cause="walltime")

        env.process(driver(env))
        env.process(killer(env))
        env.run()
        assert [name for name, _, _ in agent.failures] == [t.name for t in tasks]
        assert all(when == 50 for _, when, _ in agent.failures)

    def test_shutdown_during_dead_node_detection(self):
        """A launch onto a dead node waits ``fail_detect_s``; a shutdown
        inside that wait fails the task at once with the shutdown cause,
        and the abandoned detection timer fires as a no-op."""
        env = Environment()
        cluster, agent = make_agent(
            env,
            n_nodes=2,
            bootstrap_s=0.0,
            schedule_rate=4.0,
            launch_rate=2.0,
            fail_detect_s=10.0,
        )
        # The launcher hands out the last free node first.
        FaultInjector(env, cluster, schedule=[(0.1, "n-00001")], downtime=None)
        task = EnTask(duration=100, name="t")

        def driver(env):
            yield from agent.run_stage([task])

        def killer(env):
            yield env.timeout(5.0)
            agent.shutdown(cause="walltime")

        env.process(driver(env))
        env.process(killer(env))
        env.run()
        assert task.executed_on == ["n-00001"]
        assert task.state == TaskState.FAILED
        assert agent.failures == [("t", 5.0, "walltime")]
        assert task.attempts == 1
        assert "n-00001" in agent._blacklist
        assert not agent._live_execs


def _counting_processes(env):
    """Record the name of every process started through ``env.process``."""
    names = []
    real = env.process

    def process(generator, name=None):
        proc = real(generator, name=name)
        names.append(proc.name)
        return proc

    env.process = process
    return names


class TestTimedExecutor:
    """Fixed-duration tasks run off one kernel timer, not a process."""

    @pytest.mark.parametrize("timed", [True, False], ids=["timer", "process"])
    def test_interrupt_beats_timer_on_same_instant(self, timed):
        env = Environment()
        cluster, agent = make_agent(
            env,
            n_nodes=2,
            bootstrap_s=0.0,
            schedule_rate=4.0,
            launch_rate=2.0,
            retry_policy=RetryPolicy(max_retries=0),
        )
        # Launched at 0.25 + 0.5 = 0.75 onto n-00001; due to end at 10.75,
        # the very instant the node fails.
        FaultInjector(env, cluster, schedule=[(10.75, "n-00001")], downtime=None)
        task = EnTask(
            duration=10.0 if timed else None,
            work=None if timed else _as_work(10.0),
            name="t",
        )
        done, failed = run_stage(env, agent, [task])
        assert failed == [task] and not done
        assert task.start_time == 0.75 and task.end_time == 10.75
        assert agent.failures == [("t", 10.75, NodeFailureCause("n-00001"))]
        assert agent.done_count.current == 0

    @pytest.mark.parametrize("timed", [True, False], ids=["timer", "process"])
    def test_node_failure_right_after_launch_interrupts(self, timed):
        """The executor starts at the launch instant ahead of the rest of
        that instant's batch, as a process's ``Initialize`` does: a node
        failing later in the same instant finds it registered."""
        env = Environment()
        cluster, agent = make_agent(
            env,
            n_nodes=2,
            bootstrap_s=0.0,
            schedule_rate=4.0,
            launch_rate=2.0,
            retry_policy=RetryPolicy(max_retries=0),
        )
        node = cluster.nodes[1]

        def killer(env):
            # Scheduled after the launcher's 0.5 s period timer (set at
            # 0.25), so it fires after the launch at 0.75.
            yield env.timeout(0.5)
            yield env.timeout(0.25)
            node.fail()

        env.process(killer(env))
        task = EnTask(
            duration=10.0 if timed else None,
            work=None if timed else _as_work(10.0),
            name="t",
        )
        run_stage(env, agent, [task])
        assert task.executed_on == [node.id]
        assert agent.failures == [("t", 0.75, NodeFailureCause(node.id))]

    def test_occupants_cleared_after_completion_and_failure(self):
        env = Environment()
        cluster, agent = make_agent(env, n_nodes=4, bootstrap_s=0.0)
        tasks = [EnTask(duration=30 + i, name=f"t{i}") for i in range(6)]
        seen = []

        def probe(env):
            yield env.timeout(10)
            seen.append(sum(len(n.occupants) for n in cluster.nodes))

        env.process(probe(env))
        FaultInjector(env, cluster, schedule=[(20.0, "n-00003")], downtime=None)
        done, failed = run_stage(env, agent, tasks)
        assert len(done) == 6 and not failed
        assert len(agent.failures) == 1
        assert seen == [4]  # registered while running
        assert all(not n.occupants for n in cluster.nodes)
        assert not agent._live_execs

    def test_duration_stage_starts_no_task_processes(self):
        env = Environment()
        _, agent = make_agent(env, bootstrap_s=0.0)
        names = _counting_processes(env)
        tasks = [EnTask(duration=5 + i, name=f"t{i}") for i in range(20)]
        done, failed = run_stage(env, agent, tasks)
        assert len(done) == 20 and not failed
        assert names == ["driver", "pilot-sched", "pilot-launch"]

    def test_work_task_keeps_exec_process(self):
        env = Environment()
        _, agent = make_agent(env, bootstrap_s=0.0)
        names = _counting_processes(env)
        task = EnTask(work=_as_work(5.0), name="w")
        done, failed = run_stage(env, agent, [task])
        assert done == [task] and not failed
        assert names == [
            "driver", "pilot-sched", "pilot-launch", "exec:w#0", "work:w"
        ]

    @pytest.mark.parametrize("timed", [True, False], ids=["timer", "process"])
    def test_dispatch_units_share_one_label(self, timed):
        """Every dispatch unit of one executor carries the launch-time
        attempt count in its sanitizer label, as the ``exec:`` process's
        fixed name does."""
        from repro.sanitizer.core import _describe

        class Recorder:
            def __init__(self):
                self.labels = []

            def begin_batch(self, t, batch):
                pass

            def begin_unit(self, index, event):
                self.labels.append(_describe(event))

            def end_batch(self):
                pass

        env = Environment()
        _, agent = make_agent(env, bootstrap_s=0.0)
        env.observer = recorder = Recorder()
        task = EnTask(
            duration=5.0 if timed else None,
            work=None if timed else _as_work(5.0),
            name="t0",
        )
        done, _ = run_stage(env, agent, [task])
        assert done == [task]
        exec_labels = [x for x in recorder.labels if x.startswith("exec:")]
        assert len(exec_labels) >= 2
        assert set(exec_labels) == {"exec:t0#0"}
