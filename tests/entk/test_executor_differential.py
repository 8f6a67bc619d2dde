"""Differential test: the agent's two executors give the same run.

A ``duration=`` task runs off one kernel timer (``_TimedExec``); a
``work=`` task runs its generator under an ``exec:`` process
(``PilotAgent._execute``).  A work generator that waits exactly
``duration / min(effective speed)`` is the same task, so the same seeded
stage run both ways must produce the same per-task lifecycle, the same
failure log and the same concurrency and core-busy series.

The process path ends a task one dispatch round later within the same
instant (the work process's end event resumes the ``exec:`` process),
so the comparison holds for collision-free workloads: continuous random
durations, so no two tasks end on one instant.  Under that restriction
node identity (``executed_on``) must match too.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.entk import AgentConfig, EnTask, PilotAgent
from repro.simkernel import Environment


def _as_work(duration):
    def work(env, task, nodes):
        yield env.timeout(duration / min(n.effective_speed for n in nodes))

    return work


def _run(
    timed: bool,
    seed: int = 0,
    n_tasks: int = 48,
    failures=(),
    slowdowns=(),
    shutdown_at=None,
    **cfg,
):
    env = Environment()
    cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=64), 8)])
    config = dict(
        schedule_rate=97.0, launch_rate=41.0, bootstrap_s=2.5, fail_detect_s=1.7
    )
    config.update(cfg)
    agent = PilotAgent(env, cluster.nodes, AgentConfig(**config))
    rng = np.random.default_rng(seed)
    durations = rng.uniform(3.0, 15.0, n_tasks)
    widths = rng.integers(1, 3, n_tasks)
    tasks = [
        EnTask(
            duration=float(d) if timed else None,
            work=None if timed else _as_work(float(d)),
            nodes=int(w),
            cores_per_node=4,
            name=f"t{i:02d}",
        )
        for i, (d, w) in enumerate(zip(durations, widths))
    ]
    if failures or slowdowns:
        FaultInjector(
            env, cluster, schedule=failures, slowdowns=slowdowns, downtime=None
        )

    def driver(env):
        yield from agent.run_stage(tasks)

    env.process(driver(env))
    if shutdown_at is not None:

        def killer(env):
            yield env.timeout(shutdown_at)
            agent.shutdown(cause="walltime")

        env.process(killer(env))
    env.run()
    return {
        "tasks": [
            (
                t.name,
                t.start_time,
                t.end_time,
                t.state,
                t.attempts,
                list(t.failure_causes),
                list(t.executed_on),
            )
            for t in tasks
        ],
        "failures": list(agent.failures),
        "executing": agent.executing.series(),
        "core_busy": agent.core_util.busy.series(),
        "occupied": sorted(n.id for n in cluster.nodes if n.occupants),
    }


CASES = {
    "plain": {},
    "node-failure-cascade": dict(
        failures=[(11.37, "n-00003")], node_strikes=3
    ),
    "slowed-node": dict(slowdowns=[(6.11, "n-00005", 2.5, 20.0)]),
    "mid-run-shutdown": dict(shutdown_at=23.71),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_timer_path_matches_process_path(case, seed):
    kwargs = CASES[case]
    timed = _run(True, seed=seed, **kwargs)
    process = _run(False, seed=seed, **kwargs)
    assert timed == process
    assert timed["occupied"] == []


def test_cases_exercise_their_fault():
    """Guard against a vacuous comparison: each case really fails,
    slows or stops something."""
    cascade = _run(True, **CASES["node-failure-cascade"])
    causes = [str(c) for _, _, c in cascade["failures"]]
    assert any("dead-node:n-00003" in c for c in causes)
    assert len(causes) >= 3
    shutdown = _run(True, **CASES["mid-run-shutdown"])
    assert shutdown["failures"]
    assert all(c == "walltime" for _, _, c in shutdown["failures"])
    slowed = _run(True, **CASES["slowed-node"])
    plain = _run(True)
    assert slowed["tasks"] != plain["tasks"]
