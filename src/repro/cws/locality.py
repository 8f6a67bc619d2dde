"""Data-locality-aware scheduling through the CWSI.

The CWSI's whole premise (§3.1) is that the resource manager should
see "essential information, such as input files" — this strategy puts
that information to work.  The workflow store tracks which node each
produced file landed on (node-local scratch); the strategy then

- **prioritizes** by structural rank (it is a :class:`RankStrategy`), and
- **places** each task on the fitting node that minimizes the bytes it
  would have to pull over the interconnect, and
- **charges** the residual transfer honestly: the scheduler adds
  ``remote_bytes / interconnect_bandwidth`` to the task's start-up via
  the :meth:`~repro.rm.kube.SchedulingStrategy.stage_cost_s` hook.

Workflow-blind strategies pay the full staging penalty on every
placement; this one avoids most of it — the ablation bench
``bench_cws_locality`` quantifies the gap.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.node import Node
from repro.cws.store import WorkflowStore
from repro.cws.strategies import RankStrategy, pod_context
from repro.rm.kube import KubeScheduler, Pod


class DataLocalityStrategy(RankStrategy):
    """Rank-ordered, locality-placed scheduling with honest staging costs.

    Parameters
    ----------
    store:
        The CWS workflow store (holds graphs and file locations).
    interconnect_mbps:
        Node-to-node transfer bandwidth for remote inputs (default
        1250 MB/s ≈ 10 GbE).
    shared_fs_mbps:
        Bandwidth for external inputs served from the shared
        filesystem (no producing node).
    """

    name = "locality"

    def __init__(
        self,
        store: WorkflowStore,
        interconnect_mbps: float = 1250.0,
        shared_fs_mbps: float = 500.0,
        delay_s: float = 45.0,
    ):
        super().__init__(store, place_fastest=False)
        if interconnect_mbps <= 0 or shared_fs_mbps <= 0:
            raise ValueError("bandwidths must be positive")
        if delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        self.interconnect_mbps = interconnect_mbps
        self.shared_fs_mbps = shared_fs_mbps
        #: Delay-scheduling patience: how long a pod may wait for its
        #: zero-transfer node before settling for an off-node slot.
        self.delay_s = delay_s

    # -- cost model -----------------------------------------------------------

    def _input_placement(self, wf_name: str, task_name: str) -> list:
        """[(bytes, node_id or None)] for each input of the task."""
        stored = self.store.get(wf_name)
        wf = stored.workflow
        spec = wf.task(task_name)
        out = []
        for inp in spec.inputs:
            producer = wf.producer_of(inp)
            if producer is None:
                out.append((0, None))  # external: size unknown, shared FS
                continue
            size = next(
                (o.size_bytes for o in wf.task(producer).outputs if o.name == inp),
                0,
            )
            out.append((size, stored.file_locations.get(inp)))
        return out

    def remote_bytes(self, wf_name: str, task_name: str, node: Node) -> tuple:
        """(bytes over interconnect, bytes from shared FS) if the task
        ran on ``node``."""
        remote = 0
        shared = 0
        for size, location in self._input_placement(wf_name, task_name):
            if location is None:
                shared += size
            elif location != node.id:
                remote += size
        return remote, shared

    def stage_cost_s(self, pod: Pod, node: Node, scheduler: KubeScheduler) -> float:
        ctx = pod_context(self.store, pod)
        if ctx is None:
            return 0.0
        remote, shared = self.remote_bytes(*ctx, node)
        return (
            remote / 1e6 / self.interconnect_mbps
            + shared / 1e6 / self.shared_fs_mbps
        )

    # -- scheduling hooks ----------------------------------------------------------

    def select_node(self, pod: Pod, candidates: list, scheduler: KubeScheduler):
        ctx = pod_context(self.store, pod)
        if ctx is None:
            return super().select_node(pod, candidates, scheduler)
        best = min(
            candidates,
            key=lambda n: (
                self.stage_cost_s(pod, n, scheduler),
                n.free_cores,
                n.id,
            ),
        )
        best_cost = self.stage_cost_s(pod, best, scheduler)
        if best_cost <= 0:
            pod.labels.pop("locality_wait_since", None)
            return best
        # Delay scheduling: if some node in the cluster WOULD be free
        # of transfer cost but is currently full, wait (bounded) for it
        # rather than paying the transfer immediately.
        zero_cost_exists = any(
            n.is_up
            and self.stage_cost_s(pod, n, scheduler) <= 0
            and n.spec.cores >= pod.cores
            for n in scheduler.cluster.nodes
        )
        if zero_cost_exists and self.delay_s > 0:
            since = pod.labels.get("locality_wait_since")
            if since is None:
                pod.labels["locality_wait_since"] = scheduler.env.now
                return None
            if scheduler.env.now - since < self.delay_s:
                return None
        # Patience exhausted (or no better node exists): pay the cost.
        pod.labels.pop("locality_wait_since", None)
        return best

    def wake_deadline_s(self, pod, scheduler: KubeScheduler):
        """Exact patience expiry for a declined pod, so the (event-
        driven) scheduler re-examines it the moment its bounded wait
        ends rather than on a polling grid."""
        since = pod.labels.get("locality_wait_since")
        if since is None:
            return None
        return since + self.delay_s


class StagingAwareFifo(DataLocalityStrategy):
    """The fair baseline for locality experiments: pays the same
    transfer costs but schedules workflow-blind (FIFO order, best-fit
    placement).  Comparing :class:`DataLocalityStrategy` against plain
    FIFO would be unfair — plain FIFO's cost model has no staging at
    all."""

    name = "fifo-staging"

    def prioritize(self, pending: list, scheduler: KubeScheduler) -> list:
        return pending

    def select_node(self, pod: Pod, candidates: list, scheduler: KubeScheduler) -> Node:
        return min(candidates, key=lambda n: (n.free_cores, n.id))
