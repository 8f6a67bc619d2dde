"""The DAG driver shared by the taskwise and big-worker engines.

Its contract: a completion costs O(out-degree), outcomes reported at
one instant are settled together in launch order, a retry is relaunched
inline, and the tasks that became ready are launched in sorted-name
order after it.
"""

import itertools
from collections import Counter

import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.core import TaskSpec, Workflow
from repro.engines import AirflowLikeEngine, NextflowLikeEngine, WorkflowRun
from repro.engines.base import DagDriver, Outcome, RetryingEngine
from repro.resilience import RetryPolicy
from repro.rm import KubeScheduler
from repro.simkernel import Environment
from repro.workloads.synthetic import fork_join


def dag(edges: dict) -> Workflow:
    """``{name: [parents]}`` in insertion order."""
    wf = Workflow("dag")
    for name, parents in edges.items():
        wf.add_task(TaskSpec(name, runtime_s=10), after=parents)
    return wf


def fake_driver(wf: Workflow, log: list):
    """A driver over a substrate that only logs; tests report by hand."""
    env = Environment()
    run = WorkflowRun.start(wf, "fake", env)
    driver = DagDriver(RetryingEngine(env, scheduler=None), run)
    env.process(
        driver.drive(
            lambda name: log.append(("launch", name, env.now)),
            lambda out: log.append(("settle", out.name, env.now)),
        )
    )
    return env, run, driver


def report_at(env, driver, at: float, outcomes) -> None:
    """Report ``outcomes`` at simulated time ``at``, in the given order."""
    for out in outcomes:
        env.timeout(at).callbacks.append(lambda _event, out=out: driver.report(out))


@pytest.mark.parametrize("engine_cls", [NextflowLikeEngine, AirflowLikeEngine])
def test_a_completion_costs_its_out_degree(monkeypatch, engine_cls):
    children_calls = Counter()
    real_children = Workflow.children

    def children(self, name):
        children_calls[name] += 1
        return real_children(self, name)

    def ready_tasks(self, completed):
        raise AssertionError("the driver must not rescan the DAG")

    monkeypatch.setattr(Workflow, "children", children)
    monkeypatch.setattr(Workflow, "ready_tasks", ready_tasks)
    wf = fork_join(width=200)
    env = Environment()
    cluster = Cluster(env, pools=[(NodeSpec("k", cores=16, memory_gb=64), 16)])
    run = engine_cls(env, KubeScheduler(env, cluster)).run(wf)
    env.run(until=run.done)
    assert run.succeeded
    assert children_calls == {name: 1 for name in wf.tasks}


@pytest.mark.parametrize("arrival", list(itertools.permutations(["r0", "r1", "r2"])))
def test_same_instant_completions_settle_in_one_wake(arrival):
    # Children sort in the reverse of their parents' order.
    wf = dag({"r0": [], "r1": [], "r2": [], "z": ["r0"], "y": ["r1"], "x": ["r2"]})
    log = []
    env, run, driver = fake_driver(wf, log)
    report_at(env, driver, 10.0, [Outcome(n, True, 0.0, 10.0, "n0") for n in arrival])
    report_at(env, driver, 20.0, [Outcome(n, True, 10.0, 20.0, "n0") for n in "zyx"])
    env.run()
    assert log[:9] == (
        [("launch", n, 0.0) for n in ("r0", "r1", "r2")]
        + [("settle", n, 10.0) for n in ("r0", "r1", "r2")]
        + [("launch", n, 10.0) for n in ("x", "y", "z")]
    )
    assert [entry[:2] for entry in log[9:]] == [("settle", n) for n in "xyz"]
    assert run.succeeded


def test_a_retry_is_relaunched_inline_before_the_ready_batch():
    wf = dag({"b": [], "c": [], "a": ["c"]})
    log = []
    env, run, driver = fake_driver(wf, log)
    report_at(env, driver, 10.0, [
        Outcome("c", True, 0.0, 10.0, "n0"),
        Outcome("b", False, cause=RuntimeError("boom")),
    ])
    report_at(env, driver, 20.0, [
        Outcome("b", True, 10.0, 20.0, "n0"),
        Outcome("a", True, 10.0, 20.0, "n0"),
    ])
    env.run()
    assert log[:6] == [
        ("launch", "b", 0.0),
        ("launch", "c", 0.0),
        ("settle", "b", 10.0),
        ("launch", "b", 10.0),
        ("settle", "c", 10.0),
        ("launch", "a", 10.0),
    ]
    assert run.succeeded
    assert run.records["b"].attempts == 2
    assert run.records["b"].failure_causes[0].args == ("boom",)
    assert run.retried_tasks() == ["b"]


def test_airflow_retry_is_relaunched_at_the_failure_instant():
    wf = Workflow("wide")
    wf.add_task(TaskSpec("src", runtime_s=5))
    for i in range(6):
        wf.add_task(TaskSpec(f"w{i}", runtime_s=60), after=["src"])
    env = Environment()
    cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=32), 3)])
    engine = AirflowLikeEngine(
        env, KubeScheduler(env, cluster), retry_policy=RetryPolicy(max_retries=3)
    )
    run = engine.run(wf)
    submits = []
    for record in run.records.values():
        real = record.mark_submitted
        record.mark_submitted = lambda t, real=real, name=record.name: (
            submits.append((name, t)), real(t)
        )
    FaultInjector(env, cluster, schedule=[(30.0, "n-00000")], downtime=None)
    env.run(until=run.done)
    assert run.succeeded
    (failed,) = run.retried_tasks()
    record = run.records[failed]
    assert record.attempts == 2
    assert len(record.failure_causes) == 1
    assert [t for name, t in submits if name == failed] == [5.0, 30.0]
    assert sum(r.attempts for r in run.records.values()) == len(wf) + 1
