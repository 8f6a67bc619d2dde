"""Tests for the Kubernetes-like pod scheduler and strategy hook."""

import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.rm import JobState, KubeScheduler, Pod, SchedulingStrategy
from repro.simkernel import Environment


def kube_world(env, nodes=2, cores=4, pools=None):
    cluster = Cluster(
        env,
        pools=pools or [(NodeSpec("k", cores=cores, memory_gb=32), nodes)],
    )
    return cluster, KubeScheduler(env, cluster)


def run_pods(env, sched, pods):
    for p in pods:
        sched.submit(p)
    env.run()
    return pods


class TestPodValidation:
    def test_payload_exclusivity(self):
        with pytest.raises(ValueError):
            Pod(cores=1)
        with pytest.raises(ValueError):
            Pod(cores=1, duration=1, work=lambda e, p, n: iter(()))

    def test_core_validation(self):
        with pytest.raises(ValueError):
            Pod(cores=0, duration=1)


class TestBinPacking:
    def test_pods_pack_onto_one_node(self):
        env = Environment()
        cluster, sched = kube_world(env, nodes=2, cores=4)
        pods = [Pod(cores=2, memory_gb=1, duration=10) for _ in range(2)]
        run_pods(env, sched, pods)
        # Best-fit packs both onto the same node.
        assert pods[0].node.id == pods[1].node.id
        assert all(p.state == JobState.COMPLETED for p in pods)

    def test_pod_queues_when_full(self):
        env = Environment()
        cluster, sched = kube_world(env, nodes=1, cores=4)
        p1 = Pod(cores=4, memory_gb=1, duration=20)
        p2 = Pod(cores=4, memory_gb=1, duration=20)
        run_pods(env, sched, [p1, p2])
        assert p1.start_time == 0
        assert p2.start_time == 20

    def test_memory_constraint_respected(self):
        env = Environment()
        cluster, sched = kube_world(env, nodes=1, cores=8)
        p1 = Pod(cores=1, memory_gb=30, duration=10)
        p2 = Pod(cores=1, memory_gb=30, duration=10)
        run_pods(env, sched, [p1, p2])
        assert p2.start_time == 10  # 30+30 > 32 GiB

    def test_gpu_pod_waits_for_gpu_node(self):
        env = Environment()
        cluster, sched = kube_world(
            env,
            pools=[
                (NodeSpec("cpu", cores=8, memory_gb=32), 1),
                (NodeSpec("gpu", cores=8, gpus=1, memory_gb=32), 1),
            ],
        )
        p = Pod(cores=1, gpus=1, memory_gb=1, duration=5)
        run_pods(env, sched, [p])
        assert p.node.spec.name == "gpu"

    def test_pod_runtime_scales_with_node_speed(self):
        env = Environment()
        cluster, sched = kube_world(env, pools=[(NodeSpec("f", cores=4, speed=2.0), 1)])
        p = Pod(cores=1, duration=30)
        run_pods(env, sched, [p])
        assert p.end_time == pytest.approx(15)


class TestStrategyHook:
    def test_custom_prioritize_reorders(self):
        class LongestFirst(SchedulingStrategy):
            def prioritize(self, pending, scheduler):
                return sorted(pending, key=lambda p: -(p.duration or 0))

        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("k", cores=1, memory_gb=8), 1)])
        sched = KubeScheduler(env, cluster, strategy=LongestFirst())
        short = Pod(cores=1, duration=5, name="short")
        long = Pod(cores=1, duration=50, name="long")
        run_pods(env, sched, [short, long])
        assert long.start_time == 0
        assert short.start_time == 50

    def test_one_prioritize_per_pass(self):
        """Several pods bind in one wake off a single ``prioritize``
        call: the pass walks its order once instead of re-ordering the
        pending pods after every bind."""

        class Counting(SchedulingStrategy):
            calls = 0

            def prioritize(self, pending, scheduler):
                Counting.calls += 1
                return pending

        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("k", cores=4, memory_gb=32), 2)])
        sched = KubeScheduler(env, cluster, strategy=Counting())
        pods = run_pods(env, sched, [Pod(cores=2, duration=5) for _ in range(4)])
        assert [p.start_time for p in pods] == [0, 0, 0, 0]
        assert Counting.calls == 1

    def test_custom_select_node(self):
        class FastestNode(SchedulingStrategy):
            def select_node(self, pod, candidates, scheduler):
                return max(candidates, key=lambda n: n.spec.speed)

        env = Environment()
        cluster = Cluster(
            env,
            pools=[
                (NodeSpec("slow", cores=4, speed=1.0), 1),
                (NodeSpec("fast", cores=4, speed=3.0), 1),
            ],
        )
        sched = KubeScheduler(env, cluster, strategy=FastestNode())
        p = Pod(cores=1, duration=30)
        run_pods(env, sched, [p])
        assert p.node.spec.name == "fast"
        assert p.end_time == pytest.approx(10)

    def test_set_strategy_swaps_live(self):
        env = Environment()
        cluster, sched = kube_world(env)
        assert sched.strategy.name == "fifo"
        sched.set_strategy(SchedulingStrategy())
        assert sched.strategy.name == "base"


class TestPodFaults:
    def test_node_failure_fails_pod(self):
        env = Environment()
        cluster, sched = kube_world(env, nodes=1)
        p = Pod(cores=1, duration=1000)
        sched.submit(p)
        FaultInjector(env, cluster, schedule=[(50.0, "k-00000")], downtime=None)
        env.run()
        assert p.state == JobState.FAILED
        assert p.end_time == pytest.approx(50)

    def test_failed_pod_frees_resources(self):
        env = Environment()
        cluster, sched = kube_world(env, nodes=2, cores=4)
        doomed = Pod(cores=4, duration=1000, name="doomed")
        sched.submit(doomed)
        FaultInjector(env, cluster, schedule=[(10.0, "k-00000")], downtime=5.0)
        later = Pod(cores=4, duration=5, name="later")

        def submit_later(env):
            yield env.timeout(20)
            sched.submit(later)

        env.process(submit_later(env))
        env.run()
        assert later.state == JobState.COMPLETED

    def test_pod_work_exception(self):
        env = Environment()
        cluster, sched = kube_world(env)

        def bad(env, pod, node):
            yield env.timeout(1)
            raise ValueError("bad input")

        p = Pod(cores=1, work=bad)
        run_pods(env, sched, [p])
        assert p.state == JobState.FAILED
        assert isinstance(p.failure_cause, ValueError)


class TestWorkPayload:
    def test_work_receives_node(self):
        env = Environment()
        cluster, sched = kube_world(env)
        seen = {}

        def work(env, pod, node):
            seen["node"] = node.id
            yield env.timeout(3)

        p = Pod(cores=2, work=work)
        run_pods(env, sched, [p])
        assert p.state == JobState.COMPLETED
        assert seen["node"] == p.node.id
