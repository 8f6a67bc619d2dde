"""Tests for FreeNodePool's batched maintenance.

The pool defers bucket insertion for freed nodes (O(1) per release,
one sorted repair per query).  These tests pin the exactness claim:
queries always see the pool as if maintenance were eager.
"""

import random

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.simkernel import Environment


def build(pools):
    env = Environment()
    return Cluster(env, pools=pools)


def hetero_cluster():
    return build(
        [
            (NodeSpec("small", cores=4, memory_gb=16), 3),
            (NodeSpec("big", cores=16, memory_gb=128, gpus=2), 2),
            (NodeSpec("small2", cores=4, memory_gb=16), 2),
        ]
    )


def free_ids(cluster, cores=0, gpus=0, memory_gb=0.0):
    return [n.id for n in cluster.free_pool.iter_matching(cores, gpus, memory_gb)]


def scan_ids(cluster, cores=0, gpus=0, memory_gb=0.0):
    """The naive predicate the pool replaces: linear scan in insertion
    order over up, fully idle, spec-eligible nodes."""
    return [
        n.id
        for n in cluster.nodes
        if n.is_up
        and not n.allocations
        and n.spec.cores >= cores
        and n.spec.gpus >= gpus
        and n.spec.memory_gb >= memory_gb - 1e-9
    ]


class TestBatchedRelease:
    def test_batch_release_single_maintenance(self):
        """N releases, then one query: the flush repairs all buckets at
        once and the result matches the eager scan."""
        cluster = hetero_cluster()
        pool = cluster.free_pool
        allocs = [n.allocate(cores=n.spec.cores) for n in cluster.nodes]
        assert len(pool) == 0
        assert free_ids(cluster) == []
        for a in allocs:  # batched: no query in between
            a.release()
        assert len(pool._pending) == len(cluster.nodes)
        assert free_ids(cluster) == scan_ids(cluster)
        assert pool._pending == [] and not pool._pending_set

    def test_release_then_reallocate_before_flush(self):
        """A node that goes busy again before any query must not leak
        a stale entry into the sorted buckets."""
        cluster = hetero_cluster()
        node = cluster.nodes[0]
        a = node.allocate(cores=node.spec.cores)
        a.release()
        # Re-allocate while the free is still pending.
        b = node.allocate(cores=node.spec.cores)
        assert node.id not in free_ids(cluster)
        assert free_ids(cluster) == scan_ids(cluster)
        b.release()
        assert node.id in free_ids(cluster)

    def test_double_cycle_no_duplicate_pending(self):
        """free -> busy -> free again before a flush leaves exactly one
        live pending entry (the guard on ``_pending_set``)."""
        cluster = hetero_cluster()
        node = cluster.nodes[0]
        for _ in range(3):
            a = node.allocate(cores=node.spec.cores)
            a.release()
        assert free_ids(cluster).count(node.id) == 1
        assert free_ids(cluster) == scan_ids(cluster)

    def test_len_is_current_without_flush(self):
        """``len(pool)`` reads the always-current id set, so it is
        exact even with maintenance pending."""
        cluster = hetero_cluster()
        allocs = [n.allocate(cores=n.spec.cores) for n in cluster.nodes]
        for i, a in enumerate(allocs):
            a.release()
            assert len(cluster.free_pool) == i + 1  # no query issued

    def test_insertion_order_preserved_across_interleaved_pools(self):
        """Buckets of the same spec repr added in separate add_pool
        calls must still merge back into global insertion order."""
        cluster = hetero_cluster()
        assert free_ids(cluster, cores=4) == scan_ids(cluster, cores=4)
        assert free_ids(cluster, cores=16) == scan_ids(cluster, cores=16)
        assert free_ids(cluster, gpus=1) == scan_ids(cluster, gpus=1)

    def test_first_fit_matches_scan(self):
        cluster = hetero_cluster()
        got = cluster.free_pool.first_fit(4, 0, 0.0, count=3)
        assert [n.id for n in got] == scan_ids(cluster, cores=4)[:3]
        assert cluster.free_pool.first_fit(4, 0, 0.0, count=99) is None

    def test_first_fit_exclude(self):
        cluster = hetero_cluster()
        skip = {cluster.nodes[0].id}
        got = cluster.free_pool.first_fit(4, 0, 0.0, count=2, exclude=skip)
        assert cluster.nodes[0] not in got
        assert [n.id for n in got] == [
            i for i in scan_ids(cluster, cores=4) if i != cluster.nodes[0].id
        ][:2]


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_pool_tracks_naive_scan_under_churn(self, seed):
        """Random allocate/release/fail/recover transitions with
        interleaved queries: the pool must equal the eager scan after
        every step, for every request class."""
        rng = random.Random(seed)
        cluster = hetero_cluster()
        live = []
        classes = [(0, 0, 0.0), (4, 0, 0.0), (16, 0, 0.0), (1, 1, 0.0), (4, 0, 64.0)]
        for step in range(300):
            roll = rng.random()
            node = rng.choice(cluster.nodes)
            if roll < 0.4:
                if node.is_up and node.free_cores >= 1:
                    live.append(node.allocate(cores=rng.randint(1, node.free_cores)))
            elif roll < 0.7:
                if live:
                    live.pop(rng.randrange(len(live))).release()
            elif roll < 0.85:
                if node.is_up:
                    node.fail()
                    live = [a for a in live if not a.released]
            else:
                if not node.is_up:
                    node.recover()
            if rng.random() < 0.3:  # interleaved queries force flushes
                c = rng.choice(classes)
                assert free_ids(cluster, *c) == scan_ids(cluster, *c), (
                    f"divergence at step {step} for class {c}"
                )
        for c in classes:
            assert free_ids(cluster, *c) == scan_ids(cluster, *c)
