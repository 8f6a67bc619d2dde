"""Tests for workflow-aware strategies and the CWSI end to end."""

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.core import TaskSpec, Workflow
from repro.core.metrics import upward_ranks
from repro.cws import CWSI, PredictiveHeftStrategy, WorkflowStore
from repro.data import File
from repro.engines import NextflowLikeEngine
from repro.rm import KubeScheduler, Pod
from repro.simkernel import Environment
from repro.workloads import fork_join


def hetero_cluster(env):
    return Cluster(
        env,
        pools=[
            (NodeSpec("slow", cores=2, memory_gb=16, speed=1.0), 2),
            (NodeSpec("fast", cores=2, memory_gb=16, speed=2.0), 1),
        ],
    )


def run_with_strategy(workflow_factory, strategy, nodes_fn=hetero_cluster):
    env = Environment()
    cluster = nodes_fn(env)
    sched = KubeScheduler(env, cluster)
    cwsi = CWSI(env, sched, strategy=strategy)
    engine = NextflowLikeEngine(env, sched, cwsi=cwsi)
    run = engine.run(workflow_factory())
    env.run(until=run.done)
    assert run.succeeded
    return run, cwsi


class TestCWSIProtocol:
    def test_submit_without_register_rejected(self):
        env = Environment()
        sched = KubeScheduler(env, hetero_cluster(env))
        cwsi = CWSI(env, sched)
        from repro.rm import Pod

        with pytest.raises(KeyError):
            cwsi.task_submitted("ghost", "t", Pod(cores=1, duration=1))

    def test_unknown_strategy_rejected(self):
        env = Environment()
        sched = KubeScheduler(env, hetero_cluster(env))
        with pytest.raises(ValueError):
            CWSI(env, sched, strategy="quantum")

    def test_cwsi_installs_strategy(self):
        env = Environment()
        sched = KubeScheduler(env, hetero_cluster(env))
        CWSI(env, sched, strategy="filesize")
        assert sched.strategy.name == "filesize"

    def test_provenance_populated_after_run(self):
        run, cwsi = run_with_strategy(lambda: fork_join(width=6, seed=1), "rank")
        wf_traces = cwsi.provenance.for_workflow("forkjoin")
        assert len(wf_traces) == 8  # src + 6 branches + join
        assert all(t.succeeded for t in wf_traces)
        assert cwsi.store.get("forkjoin").done

    def test_predictor_learns_from_run(self):
        run, cwsi = run_with_strategy(lambda: fork_join(width=6, seed=1), "rank")
        assert cwsi.runtime_predictor.predict("join") is not None
        assert cwsi.runtime_predictor.observations("src") == 1

    def test_input_bytes_label_attached(self):
        run, cwsi = run_with_strategy(lambda: fork_join(width=4, seed=1), "filesize")
        traces = cwsi.provenance.for_task("join")
        assert traces[0].input_bytes > 0


class TestStrategyBehaviour:
    def critical_branch_wf(self):
        """One long branch + many short ones; workflow-aware = run the
        long one first on the fast node."""
        wf = Workflow("crit")
        big_src = File("s.big", 100_000_000)
        small_src = File("s.small", 1000)
        wf.add_task(TaskSpec("src", runtime_s=1, outputs=(big_src, small_src)))
        long_out = File("long.out", 100_000_000)
        wf.add_task(
            TaskSpec(
                "zlong",  # 'z' prefix: FIFO submit order puts it last
                runtime_s=300,
                inputs=("s.big",),
                outputs=(long_out,),
            )
        )
        short_outs = []
        for i in range(6):
            o = File(f"short{i}.out", 1000)
            wf.add_task(
                TaskSpec(f"short{i}", runtime_s=30, inputs=("s.small",), outputs=(o,))
            )
            short_outs.append(o)
        # Second stage after the long task keeps its rank high.
        mid_out = File("mid.out", 1000)
        wf.add_task(
            TaskSpec("mid", runtime_s=60, inputs=(long_out.name,), outputs=(mid_out,))
        )
        wf.add_task(
            TaskSpec(
                "join",
                runtime_s=10,
                inputs=(mid_out.name,) + tuple(o.name for o in short_outs),
            )
        )
        return wf

    def test_rank_beats_fifo_on_critical_branch(self):
        fifo_run, _ = run_with_strategy(self.critical_branch_wf, "fifo")
        rank_run, _ = run_with_strategy(self.critical_branch_wf, "rank")
        assert rank_run.makespan < fifo_run.makespan

    def test_filesize_beats_fifo_on_critical_branch(self):
        fifo_run, _ = run_with_strategy(self.critical_branch_wf, "fifo")
        fs_run, _ = run_with_strategy(self.critical_branch_wf, "filesize")
        # The long task also has the big input, so filesize finds it too.
        assert fs_run.makespan < fifo_run.makespan

    def test_rank_schedules_deep_task_first(self):
        run, _ = run_with_strategy(self.critical_branch_wf, "rank")
        rec = run.records
        # The long branch started no later than any short branch.
        assert rec["zlong"].start_time <= min(
            rec[f"short{i}"].start_time for i in range(6)
        )

    def test_fifo_schedules_in_submit_order(self):
        run, _ = run_with_strategy(self.critical_branch_wf, "fifo")
        rec = run.records
        # FIFO: shorts (submitted first alphabetically... ready order is
        # sorted) run before zlong.
        assert rec["short0"].start_time <= rec["zlong"].start_time

    def test_heft_strategy_runs_clean(self):
        # Without history HEFT degrades to structural order; must still
        # complete correctly.
        run, cwsi = run_with_strategy(self.critical_branch_wf, "heft")
        assert run.succeeded


class TestHeftPrioritize:
    class FixedPredictor:
        def __init__(self, runtimes):
            self.runtimes = runtimes

        def predict(self, task, node_speed=1.0):
            return self.runtimes.get(task)

    def test_ranks_computed_once_per_workflow_per_pass(self, monkeypatch):
        import repro.core.metrics as metrics
        import repro.cws.strategies as strategies

        store = WorkflowStore()
        workflows = [
            fork_join(width=4, seed=1, name="fj1"),
            fork_join(width=3, seed=2, name="fj2"),
        ]
        for wf in workflows:
            store.register(wf)
        predictor = self.FixedPredictor({"src": 5.0, "branch001": 40.0, "join": 2.0})
        heft = PredictiveHeftStrategy(store, predictor, default_runtime_s=3.0)
        pending = [
            Pod(duration=1, labels={"workflow": wf.name, "task": name})
            for name in ("branch000", "branch001", "branch002", "join", "src")
            for wf in workflows
        ]
        pending.insert(3, Pod(duration=1))

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].name)
            return upward_ranks(*args, **kwargs)

        monkeypatch.setattr(metrics, "upward_ranks", counted)
        monkeypatch.setattr(strategies, "upward_ranks", counted, raising=False)
        order = heft.prioritize(pending, scheduler=None)
        assert sorted(calls) == ["fj1", "fj2"]

        def per_pod_key(item):
            idx, pod = item
            if not pod.labels:
                return (0.0, idx)
            wf = store.get(pod.labels["workflow"]).workflow
            ranks = upward_ranks(wf, lambda n: predictor.runtimes.get(n, 3.0))
            return (-ranks[pod.labels["task"]], idx)

        assert order == [p for _, p in sorted(enumerate(pending), key=per_pod_key)]


class TestFastPlacement:
    def test_rank_places_critical_task_on_fast_node(self):
        env = Environment()
        cluster = hetero_cluster(env)
        sched = KubeScheduler(env, cluster)
        cwsi = CWSI(env, sched, strategy="rank", place_fastest=True)
        engine = NextflowLikeEngine(env, sched, cwsi=cwsi)
        wf = Workflow("place")
        wf.add_task(TaskSpec("a", runtime_s=100, outputs=(File("x", 1),)))
        run = engine.run(wf)
        env.run(until=run.done)
        assert run.records["a"].node_id.startswith("fast")
