"""Tests for Cluster aggregate behaviour and fault injection."""

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterCapacityError, FaultInjector, NodeSpec
from repro.simkernel import Environment, Interrupt


def hetero_cluster(env) -> Cluster:
    return Cluster(
        env,
        name="testbed",
        pools=[
            (NodeSpec("small", cores=4, memory_gb=16, speed=1.0), 2),
            (NodeSpec("big", cores=16, gpus=4, memory_gb=128, speed=2.0), 3),
        ],
    )


class TestClusterConstruction:
    def test_pool_counts_and_ids(self):
        env = Environment()
        c = hetero_cluster(env)
        assert len(c) == 5
        assert c.node("small-00000").spec.cores == 4
        assert c.node("big-00002").spec.gpus == 4

    def test_aggregate_capacity(self):
        env = Environment()
        c = hetero_cluster(env)
        assert c.total_cores == 2 * 4 + 3 * 16
        assert c.total_gpus == 12
        assert c.total_memory_gb == 2 * 16 + 3 * 128

    def test_add_pool_extends_ids(self):
        env = Environment()
        c = hetero_cluster(env)
        c.add_pool(NodeSpec("small", cores=4), 1)
        assert c.node("small-00002").spec.cores == 4

    def test_invalid_pool_count(self):
        env = Environment()
        with pytest.raises(ValueError):
            Cluster(env, pools=[(NodeSpec("x", cores=1), 0)])

    def test_speed_range(self):
        env = Environment()
        c = hetero_cluster(env)
        assert c.speed_range() == (1.0, 2.0)


class TestFindNodes:
    def test_first_fit(self):
        env = Environment()
        c = hetero_cluster(env)
        nodes = c.find_nodes(cores=4, count=2)
        assert [n.id for n in nodes] == ["small-00000", "small-00001"]

    def test_gpu_requirement_skips_cpu_nodes(self):
        env = Environment()
        c = hetero_cluster(env)
        nodes = c.find_nodes(cores=1, gpus=1, count=1)
        assert nodes[0].spec.name == "big"

    def test_returns_none_when_busy(self):
        env = Environment()
        c = hetero_cluster(env)
        for n in c.nodes:
            n.allocate(cores=n.spec.cores)
        assert c.find_nodes(cores=1, count=1) is None

    def test_impossible_request_raises(self):
        env = Environment()
        c = hetero_cluster(env)
        with pytest.raises(ClusterCapacityError):
            c.find_nodes(cores=64, count=1)
        with pytest.raises(ClusterCapacityError):
            c.find_nodes(cores=1, count=6)

    def test_predicate_filter(self):
        env = Environment()
        c = hetero_cluster(env)
        nodes = c.find_nodes(cores=1, count=1, predicate=lambda n: n.spec.speed > 1.5)
        assert nodes[0].spec.name == "big"


class TestUtilizationTracking:
    def test_tracked_utilization(self):
        env = Environment()
        c = hetero_cluster(env)
        c.enable_tracking()

        def work(env):
            c.track_acquire(cores=c.total_cores // 2)
            yield env.timeout(10)
            c.track_release(cores=c.total_cores // 2)

        env.process(work(env))
        env.run()
        assert c.core_utilization(0, 10) == pytest.approx(0.5)

    def test_untracked_raises(self):
        env = Environment()
        c = hetero_cluster(env)
        with pytest.raises(RuntimeError):
            c.core_utilization()


class TestFaultInjector:
    def test_scheduled_failure_and_recovery(self):
        env = Environment()
        c = hetero_cluster(env)
        inj = FaultInjector(env, c, schedule=[(50.0, "big-00000")], downtime=100.0)
        env.run(until=60)
        assert not c.node("big-00000").is_up
        assert inj.failure_count == 1
        env.run(until=200)
        assert c.node("big-00000").is_up

    def test_scheduled_failure_interrupts_occupants(self):
        env = Environment()
        c = hetero_cluster(env)
        interrupted = []

        def task(env):
            try:
                yield env.timeout(1000)
            except Interrupt as i:
                interrupted.append(i.cause.node_id)

        def place(env):
            node = c.node("small-00000")
            p = env.process(task(env))
            node.register_occupant("task", p)
            yield env.timeout(0)

        env.process(place(env))
        FaultInjector(env, c, schedule=[(10.0, "small-00000")], downtime=None)
        env.run()
        assert interrupted == ["small-00000"]

    def test_fingerprint_lists_node_awaiting_recovery(self):
        env = Environment()
        c = hetero_cluster(env)
        inj = FaultInjector(env, c, schedule=[(50.0, "big-00000")], downtime=100.0)
        env.run(until=60)
        assert inj.ckpt_fingerprint()["pending_recoveries"] == ["big-00000"]
        env.run(until=200)
        assert c.node("big-00000").is_up
        assert inj.ckpt_fingerprint()["pending_recoveries"] == []

    def test_fingerprint_omits_node_down_for_good(self):
        env = Environment()
        c = hetero_cluster(env)
        inj = FaultInjector(env, c, schedule=[(50.0, "big-00000")], downtime=None)
        env.run(until=60)
        assert inj.ckpt_fingerprint()["pending_recoveries"] == []

    def test_stochastic_failures_deterministic_with_seed(self):
        def run(seed):
            env = Environment()
            c = hetero_cluster(env)
            inj = FaultInjector(
                env, c, mtbf=100.0, downtime=50.0, rng=np.random.default_rng(seed)
            )
            env.run(until=1000)
            return [(f.time, f.node_id) for f in inj.failures]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_failure_victim_count_recorded(self):
        env = Environment()
        c = hetero_cluster(env)

        def task(env):
            try:
                yield env.timeout(1000)
            except Interrupt:
                pass

        def place(env):
            node = c.node("big-00001")
            for i in range(3):
                node.register_occupant(i, env.process(task(env)))
            yield env.timeout(0)

        env.process(place(env))
        inj = FaultInjector(env, c, schedule=[(5.0, "big-00001")], downtime=None)
        env.run()
        assert inj.total_victims() == 3

    def test_invalid_mtbf(self):
        env = Environment()
        c = hetero_cluster(env)
        with pytest.raises(ValueError):
            FaultInjector(env, c, mtbf=0)


class TestFaultScheduleValidation:
    """The schedule is validated at construction, not inside a kernel
    process mid-run — a bad entry fails fast with a clear message."""

    def test_past_failure_time_rejected_up_front(self):
        env = Environment()
        c = hetero_cluster(env)
        env.run(until=100)
        with pytest.raises(ValueError, match="in the past"):
            FaultInjector(env, c, schedule=[(50.0, "big-00000")])

    def test_unknown_node_id_rejected_up_front(self):
        env = Environment()
        c = hetero_cluster(env)
        with pytest.raises(ValueError, match="unknown node id"):
            FaultInjector(env, c, schedule=[(50.0, "ghost-00000")])

    def test_malformed_entry_rejected(self):
        env = Environment()
        c = hetero_cluster(env)
        with pytest.raises(ValueError):
            FaultInjector(env, c, schedule=[(50.0,)])

    def test_valid_schedule_at_current_time_allowed(self):
        env = Environment()
        c = hetero_cluster(env)
        env.run(until=100)
        inj = FaultInjector(env, c, schedule=[(100.0, "big-00000")], downtime=None)
        env.run(until=101)
        assert inj.failure_count == 1


class TestStochasticFaults:
    def test_downtime_none_keeps_nodes_down_forever(self):
        env = Environment()
        c = hetero_cluster(env)
        inj = FaultInjector(
            env, c, mtbf=50.0, downtime=None, rng=np.random.default_rng(1)
        )
        env.run(until=10_000)
        assert inj.failure_count >= 1
        for f in inj.failures:
            assert f.recovered_at is None
            assert not c.node(f.node_id).is_up

    def test_no_double_failure_of_down_node(self):
        env = Environment()
        c = hetero_cluster(env)
        # Aggressive MTBF with permanent downtime: once all nodes are
        # dead the injector must stop logging failures rather than
        # re-failing corpses.
        inj = FaultInjector(
            env, c, mtbf=5.0, downtime=None, rng=np.random.default_rng(2)
        )
        env.run(until=100_000)
        failed_ids = [f.node_id for f in inj.failures]
        assert len(failed_ids) == len(set(failed_ids)) == len(c)

    def test_scheduled_double_failure_is_a_noop(self):
        env = Environment()
        c = hetero_cluster(env)
        inj = FaultInjector(
            env,
            c,
            schedule=[(10.0, "big-00000"), (20.0, "big-00000")],
            downtime=None,
        )
        env.run(until=30)
        assert inj.failure_count == 1

    def test_recovered_node_can_fail_again(self):
        env = Environment()
        c = hetero_cluster(env)
        inj = FaultInjector(
            env,
            c,
            schedule=[(10.0, "big-00000"), (100.0, "big-00000")],
            downtime=20.0,
        )
        env.run(until=200)
        assert inj.failure_count == 2
        assert c.node("big-00000").is_up
