"""Cluster: a named collection of heterogeneous nodes."""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import Callable, Iterator, Optional, Sequence

from repro.sanitizer import hooks
from repro.simkernel import Environment, UtilizationTracker, register_ckpt_probe
from repro.cluster.node import Node, NodeSpec


class ClusterCapacityError(RuntimeError):
    """A request can never be satisfied by the cluster (even when empty)."""


class FreeNodePool:
    """Incremental index of whole-node-idle nodes, bucketed by spec class.

    Tracks every node that is UP with zero allocations — the "free"
    predicate the batch scheduler's whole-node grants use — by
    subscribing to node idle transitions, so membership updates ride
    along with ``allocate``/``release``/``fail``/``recover`` instead of
    being recomputed by scanning the cluster on every scheduling pass.

    Each spec class keeps its free members as a bisect-sorted list of
    *global insertion indices*; a query merges the buckets eligible for
    a request with :func:`heapq.merge`, which reproduces the original
    linear scan over ``cluster.nodes`` exactly (pools of the same or
    different specs may be interleaved across ``add_pool`` calls, so
    per-bucket order alone would not be enough).

    Maintenance is *batched*: a node turning free is recorded in O(1)
    (set insert + pending append) and the sorted buckets are only
    repaired in a single :meth:`_flush` step on the next query.  N
    same-instant job completions therefore cost one maintenance pass,
    not N bucket insertions.  This is exact because every read of the
    buckets (``iter_matching``/``first_fit``) flushes first, and
    ``__len__`` reads ``_free_ids``, which is always current.

    The pool keeps no fit verdicts: a scheduler that found no fit for
    a class may skip it for the rest of *one* pass (its binds only
    shrink the pool), and asks again on the next.
    """

    def __init__(self) -> None:
        self._node_at: list[Node] = []  # global insertion index -> node
        self._index: dict[str, int] = {}  # node.id -> global index
        self._buckets: dict[NodeSpec, list[int]] = {}  # spec -> sorted free
        self._free_ids: set[int] = set()
        self._eligible_cache: dict[tuple, tuple[list[int], ...]] = {}
        self._pending: list[int] = []  # frees awaiting bucket insertion
        self._pending_set: set[int] = set()

    def __len__(self) -> int:
        """Number of currently free (idle, up) nodes."""
        return len(self._free_ids)

    def register(self, node: Node) -> None:
        """Start tracking ``node`` (called once, at cluster add time)."""
        idx = len(self._node_at)
        self._node_at.append(node)
        self._index[node.id] = idx
        if node.spec not in self._buckets:
            self._buckets[node.spec] = []
            self._eligible_cache.clear()  # a new spec class may match
        if node.is_up and not node.allocations:
            self._free_ids.add(idx)
            self._buckets[node.spec].append(idx)  # idx is the max so far
        node._idle_watchers.append(self._on_idle_changed)

    def _on_idle_changed(self, node: Node, idle: bool) -> None:
        if hooks.ACTIVE is not None:
            # simsan: free-pool membership is per-node state; two batch
            # units flipping the same node the same way is idempotent,
            # opposite ways is order-sensitive.
            hooks.ACTIVE.record(self, node.id, "w", value=idle)
        idx = self._index[node.id]
        if idle:
            if idx not in self._free_ids:
                self._free_ids.add(idx)
                if idx not in self._pending_set:
                    self._pending.append(idx)
                    self._pending_set.add(idx)
        elif idx in self._free_ids:
            self._free_ids.remove(idx)
            if idx in self._pending_set:
                # Never reached a bucket; drop it from the deferred
                # batch instead (the stale list entry is skipped at
                # flush time because it left the pending set).
                self._pending_set.remove(idx)
            else:
                bucket = self._buckets[node.spec]
                del bucket[bisect_left(bucket, idx)]

    def _flush(self) -> None:
        """Apply deferred frees to the sorted buckets in one batch."""
        pending_set = self._pending_set
        if not pending_set:
            if self._pending:
                self._pending.clear()
            return
        node_at = self._node_at
        by_spec: dict[NodeSpec, list[int]] = {}
        for idx in self._pending:
            # A stale entry (went busy again, or a duplicate append) is
            # no longer in the set; the first live occurrence wins.
            if idx in pending_set:
                pending_set.remove(idx)
                by_spec.setdefault(node_at[idx].spec, []).append(idx)
        self._pending.clear()
        for spec, indices in by_spec.items():
            bucket = self._buckets[spec]
            if len(indices) == 1:
                insort(bucket, indices[0])
            else:
                bucket.extend(indices)
                bucket.sort()

    def _eligible(
        self, cores: int, gpus: int, memory_gb: float
    ) -> tuple[list[int], ...]:
        key = (cores, gpus, memory_gb)
        buckets = self._eligible_cache.get(key)
        if buckets is None:
            buckets = tuple(
                bucket
                for spec, bucket in self._buckets.items()
                if spec.cores >= cores
                and spec.gpus >= gpus
                and spec.memory_gb >= memory_gb - 1e-9
            )
            self._eligible_cache[key] = buckets
        return buckets

    def iter_matching(
        self, cores: int, gpus: int, memory_gb: float
    ) -> Iterator[Node]:
        """Free nodes whose spec satisfies the per-node request, in
        cluster insertion order.

        Not a generator: deferred maintenance is flushed at *call*
        time, so the returned iterator reflects the pool as of this
        call even if the caller holds it across an inspection.
        """
        self._flush()
        buckets = self._eligible(cores, gpus, memory_gb)
        if not buckets:
            return iter(())
        indices = buckets[0] if len(buckets) == 1 else heapq.merge(*buckets)
        return map(self._node_at.__getitem__, indices)

    def first_fit(
        self,
        cores: int,
        gpus: int,
        memory_gb: float,
        count: int,
        exclude=(),
    ) -> Optional[list[Node]]:
        """First ``count`` matching free nodes in insertion order whose
        ids are not in ``exclude``, or ``None`` if fewer are free (same
        contract as the scan-based ``_free_nodes_for`` this replaces)."""
        found = []
        for node in self.iter_matching(cores, gpus, memory_gb):
            if exclude and node.id in exclude:
                continue
            found.append(node)
            if len(found) == count:
                return found
        return None


class Cluster:
    """A heterogeneous pool of nodes bound to a simulation environment.

    Build clusters from ``(spec, count)`` pools::

        cluster = Cluster(env, name="testbed", pools=[
            (NodeSpec("a1", cores=8, memory_gb=32, speed=1.0), 2),
            (NodeSpec("n1", cores=16, memory_gb=64, speed=1.6), 4),
        ])

    The cluster records core/GPU occupancy over time via
    :class:`UtilizationTracker` so experiments can report Fig-4-style
    utilization numbers without extra plumbing.
    """

    def __init__(
        self,
        env: Environment,
        name: str = "cluster",
        pools: Optional[Sequence[tuple[NodeSpec, int]]] = None,
    ):
        self.env = env
        self.name = name
        self.nodes: list[Node] = []
        self._by_id: dict[str, Node] = {}
        #: Incremental whole-node-idle index used by the batch scheduler.
        self.free_pool = FreeNodePool()
        if pools:
            for spec, count in pools:
                self.add_pool(spec, count)
        self._core_tracker: Optional[UtilizationTracker] = None
        self._gpu_tracker: Optional[UtilizationTracker] = None
        register_ckpt_probe(env, f"cluster.{name}", self.ckpt_fingerprint)

    def ckpt_fingerprint(self) -> dict:
        """Semantic occupancy state for checkpoint verification.

        Node *identities* are per-cluster deterministic (spec-derived
        ids), so including the down-node set is safe; the free pool is
        summarized by its length (the sorted buckets are a rebuildable
        index, not state).
        """
        return {
            "nodes": len(self.nodes),
            "down": sorted(n.id for n in self.nodes if not n.is_up),
            "allocations": sum(len(n.allocations) for n in self.nodes),
            "free": len(self.free_pool),
        }

    # -- construction -------------------------------------------------------

    def add_pool(self, spec: NodeSpec, count: int) -> list[Node]:
        """Append ``count`` identical nodes of ``spec``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        created = []
        start = len([n for n in self.nodes if n.spec.name == spec.name])
        for i in range(count):
            node = Node(f"{spec.name}-{start + i:05d}", spec)
            self.nodes.append(node)
            self._by_id[node.id] = node
            self.free_pool.register(node)
            created.append(node)
        return created

    def enable_tracking(self) -> None:
        """Start recording cluster-wide core/GPU busy time.

        Call after all pools are added and before work starts.
        """
        self._core_tracker = UtilizationTracker(
            capacity=self.total_cores, name=f"{self.name}.cores", t0=self.env.now
        )
        if self.total_gpus:
            self._gpu_tracker = UtilizationTracker(
                capacity=self.total_gpus, name=f"{self.name}.gpus", t0=self.env.now
            )
        # Adopt the trackers into the trace's metrics registry (no-op
        # when tracing is disabled) so exported traces carry the same
        # occupancy series core_utilization() reports — one recorder,
        # two views.
        registry = self.env.tracer.metrics
        registry.register(self._core_tracker, component=self.name)
        if self._gpu_tracker is not None:
            registry.register(self._gpu_tracker, component=self.name)

    # -- lookup & aggregate capacity ------------------------------------------

    def node(self, node_id: str) -> Node:
        return self._by_id[node_id]

    @property
    def up_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.is_up]

    @property
    def total_cores(self) -> int:
        return sum(n.spec.cores for n in self.nodes)

    @property
    def total_gpus(self) -> int:
        return sum(n.spec.gpus for n in self.nodes)

    @property
    def total_memory_gb(self) -> float:
        return sum(n.spec.memory_gb for n in self.nodes)

    @property
    def free_cores(self) -> int:
        return sum(n.free_cores for n in self.up_nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    # -- allocation helpers ------------------------------------------------------

    def find_nodes(
        self,
        cores: int = 0,
        gpus: int = 0,
        memory_gb: float = 0.0,
        count: int = 1,
        predicate: Optional[Callable[[Node], bool]] = None,
    ) -> Optional[list[Node]]:
        """First-fit search for ``count`` up-nodes each fitting a request.

        Returns ``None`` when not currently satisfiable.  Raises
        :class:`ClusterCapacityError` when no subset of the cluster's
        nodes could *ever* satisfy it (so callers don't wait forever).
        """
        eligible_specs = [
            n
            for n in self.nodes
            if n.spec.cores >= cores
            and n.spec.gpus >= gpus
            and n.spec.memory_gb >= memory_gb - 1e-9
            and (predicate is None or predicate(n))
        ]
        if len(eligible_specs) < count:
            raise ClusterCapacityError(
                f"{self.name}: request (count={count}, cores={cores}, "
                f"gpus={gpus}, mem={memory_gb}GiB) exceeds cluster capacity"
            )
        found = []
        for node in self.nodes:
            if predicate is not None and not predicate(node):
                continue
            if node.fits(cores, gpus, memory_gb):
                found.append(node)
                if len(found) == count:
                    return found
        return None

    def track_acquire(self, cores: int = 0, gpus: int = 0) -> None:
        """Record resources going busy (called by resource managers)."""
        if self._core_tracker and cores:
            self._core_tracker.acquire(self.env.now, cores)
        if self._gpu_tracker and gpus:
            self._gpu_tracker.acquire(self.env.now, gpus)

    def track_release(self, cores: int = 0, gpus: int = 0) -> None:
        """Record resources going free (called by resource managers)."""
        if self._core_tracker and cores:
            self._core_tracker.release(self.env.now, cores)
        if self._gpu_tracker and gpus:
            self._gpu_tracker.release(self.env.now, gpus)

    def core_utilization(self, t_start=None, t_end=None) -> float:
        """Time-averaged fraction of cluster cores in use."""
        if self._core_tracker is None:
            raise RuntimeError("enable_tracking() was never called")
        return self._core_tracker.utilization(t_start, t_end)

    def gpu_utilization(self, t_start=None, t_end=None) -> float:
        """Time-averaged fraction of cluster GPUs in use."""
        if self._gpu_tracker is None:
            raise RuntimeError("no GPUs tracked")
        return self._gpu_tracker.utilization(t_start, t_end)

    # -- heterogeneity metrics ------------------------------------------------------

    def speed_range(self) -> tuple[float, float]:
        """(slowest, fastest) node speed factors — heterogeneity spread."""
        speeds = [n.spec.speed for n in self.nodes]
        return min(speeds), max(speeds)

    def __repr__(self) -> str:
        kinds = sorted({n.spec.name for n in self.nodes})
        return (
            f"<Cluster {self.name}: {len(self.nodes)} nodes "
            f"({', '.join(kinds)}), {self.total_cores} cores, "
            f"{self.total_gpus} gpus>"
        )
