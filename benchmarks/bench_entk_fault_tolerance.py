"""E4 — EnTK fault tolerance (§4.3).

Paper: "We registered only 10 task failures across the UQ Stage 3 run.
Two tasks failed on the very last simulation step due to too large of
a time step [...] The other eight tasks failed due to a single node
failure and ran successfully once automatically resubmitted."

We inject exactly that scenario at 1/10 scale (800 nodes, 790 tasks;
the registry's E4 ``full`` row, ``repro.report.scenarios``):
one node failure with delayed propagation (the agent keeps handing the
dead node out until it accumulates strikes — each strike is one failed
task), plus two tasks with a deterministic numerical failure on their
final step.  Shape targets: a single node failure cascades into ~8
task failures, every one of them reruns to success, and the ensemble
completes with only the two numerical casualties.
"""

import pytest

from repro.cluster import FaultInjector
from repro.entk import AgentConfig, EnTask, TaskState
from repro.report.scenarios import SCENARIOS
from repro.simkernel import Environment
from repro.viz import render_table


@pytest.mark.slow
def test_entk_fault_tolerance(benchmark, report, verdict):
    e4 = SCENARIOS["E4"]
    result, tracer = benchmark.pedantic(
        e4.trace, args=("full",), rounds=1, iterations=1
    )
    prof = result.profiles[0]
    tasks = [t for pl in result.pipelines for t in pl.all_tasks()]

    node_failed_tasks = {
        name for name, cause in prof_failures(result)
        if "dead-node" in str(cause) or "frontier-00400" in str(cause)
    }
    numerical_failures = {
        name for name, cause in prof_failures(result)
        if "time step" in str(cause)
    }
    recovered = [
        t for t in tasks
        if t.name in node_failed_tasks and t.state == TaskState.DONE
    ]
    permanently_failed = [t for t in tasks if t.state == TaskState.FAILED]

    table = render_table(
        ["metric", "paper", "measured"],
        [
            ["total task-failure events", "10", str(prof.tasks_failed_events)],
            ["tasks killed by the node failure", "8", str(len(node_failed_tasks))],
            ["...recovered after resubmission", "8", str(len(recovered))],
            ["numerical failures (accepted)", "2", str(len(numerical_failures))],
            ["tasks completed", "7873/7875", f"{result.tasks_done()}/{len(tasks)}"],
        ],
    )
    report("E4_fault_tolerance", "E4: fault tolerance under a node failure\n\n" + table)

    assert 6 <= len(node_failed_tasks) <= 10          # paper: 8
    assert len(recovered) == len(node_failed_tasks)   # all resubmitted OK
    assert {t.name for t in permanently_failed} == {
        "constit-diverge-0", "constit-diverge-1"
    }
    assert result.tasks_done() == len(tasks) - 2

    rep = verdict(e4.report(e4.scales["full"], True, result, tracer, None))
    assert rep.ok


def prof_failures(result):
    """(task, cause) for every failed attempt across the run's tasks.

    RunProfile keeps only the count; the per-task causes live on the
    tasks themselves.
    """
    return [
        (t.name, cause)
        for pl in result.pipelines
        for t in pl.all_tasks()
        for cause in t.failure_causes
    ]


def test_entk_resilience_layer_reduced_scale():
    """E4 shape under the unified resilience layer, at toy scale.

    A scheduled single-node failure kills exactly the 8 tasks running
    on the victim node; every casualty is classified transient,
    resubmitted away from the (now quarantined) node, and the ensemble
    completes.  MTTR/availability come from the fault log and the
    stock resilience SLO rules pass through ``build_report``.
    """
    from repro.cluster import Cluster, NodeSpec
    from repro.entk import PilotAgent
    from repro.report import build_report
    from repro.resilience import (
        FailureClass,
        QuarantineSpec,
        RetryPolicy,
        classify_failure,
        resilience_context,
        stock_resilience_rules,
    )

    env = Environment()
    cluster = Cluster(
        env, pools=[(NodeSpec("f", cores=8, memory_gb=64), 4)]
    )
    agent = PilotAgent(
        env,
        cluster.nodes,
        AgentConfig(
            schedule_rate=1000.0,
            launch_rate=1000.0,
            bootstrap_s=1.0,
            fail_detect_s=1.0,
            node_strikes=8,   # delayed propagation: 8 casualties (§4.3)
            retry_policy=RetryPolicy.resilient(
                max_retries=3, backoff_base_s=1.0, jitter=0.0
            ),
            quarantine=QuarantineSpec(strikes=8, probation_s=50_000.0),
        ),
    )
    tasks = [
        EnTask(duration=500.0, cores_per_node=1, name=f"uq-{i:03d}")
        for i in range(32)
    ]
    victim = "f-00001"
    inj = FaultInjector(env, cluster, schedule=[(100.0, victim)],
                        downtime=None)
    holder = {}

    def driver(env):
        holder["result"] = yield from agent.run_stage(tasks)

    env.process(driver(env))
    env.run()

    done, failed = holder["result"]
    assert not failed and len(done) == len(tasks)

    # Exactly the victim node's 8 occupants died, all transient.
    casualties = [t for t in tasks if t.failure_causes]
    assert len(casualties) == 8
    for t in casualties:
        assert classify_failure(t.failure_causes[-1]) is FailureClass.TRANSIENT
        assert t.attempts == 2
        assert victim in str(t.failure_causes[-1])  # died on the victim
        assert victim not in t.executed_on          # rerun went elsewhere
        assert t.state == TaskState.DONE

    # The circuit breaker tripped on the victim and nothing else.
    # (env.run() drains the probation timer too, so check the episode
    # log rather than the live set.)
    assert agent.health.quarantine_count == 1
    [episode] = agent.health.log
    assert episode.node_id == victim

    window = env.now
    context = resilience_context(
        n_tasks=len(tasks),
        failure_events=len(casualties),
        resubmissions=sum(max(0, t.attempts - 1) for t in tasks),
        health=agent.health,
        injector=inj,
        window_s=window,
        n_nodes=len(cluster),
    )
    assert context["mttr_s"] > 0  # unrecovered, measured to the horizon
    assert 0.0 < context["availability"] < 1.0

    report = build_report(
        "E4r",
        title="resilience layer: single-node failure, reduced scale",
        headline=context,
        rules=stock_resilience_rules(
            len(tasks), max_failure_rate=0.5, series=False
        ),
    )
    assert report.ok, report.render_ascii()
