"""Workflow-aware scheduling strategies (§3.1/§3.5).

"By implementing the CWSI alongside basic scheduling approaches like
rank and file size, we achieve an average runtime reduction of 10.8%."

All strategies read workflow context from pod labels (``workflow`` /
``task``) resolved against the :class:`~repro.cws.store.WorkflowStore`.
Pods without labels (non-workflow traffic) sort last, preserving FIFO
among themselves — the scheduler keeps working for everyone.
"""

from __future__ import annotations

from typing import Optional

from repro.core.metrics import upward_ranks
from repro.cws.store import WorkflowStore
from repro.rm.kube import KubeScheduler, Pod, SchedulingStrategy
from repro.cluster.node import Node


class _StoreBackedStrategy(SchedulingStrategy):
    """Common label-resolution plumbing."""

    def __init__(self, store: WorkflowStore, place_fastest: bool = True):
        self.store = store
        #: Place the highest-priority task on the fastest fitting node —
        #: the heterogeneity-aware half of workflow-aware scheduling.
        self.place_fastest = place_fastest

    def _context(self, pod: Pod) -> Optional[tuple]:
        wf = pod.labels.get("workflow")
        task = pod.labels.get("task")
        if wf is None or task is None or wf not in self.store:
            return None
        return wf, task

    def _trace_decision(self, pod: Pod, node: Node, scheduler: KubeScheduler) -> Node:
        ctx = self._context(pod)
        scheduler.env.tracer.instant(
            "decision",
            category="cws.strategy",
            component="cws",
            tags={
                "strategy": self.name,
                "workflow": ctx[0] if ctx else None,
                "task": ctx[1] if ctx else None,
                "pod": pod.name,
                "node": node.id,
            },
        )
        return node

    def select_node(self, pod: Pod, candidates: list, scheduler: KubeScheduler) -> Node:
        if self.place_fastest and self._context(pod) is not None:
            chosen = max(
                candidates, key=lambda n: (n.spec.speed, -n.free_cores, n.id)
            )
        else:
            chosen = super().select_node(pod, candidates, scheduler)
        return self._trace_decision(pod, chosen, scheduler)


class RankStrategy(_StoreBackedStrategy):
    """Prioritize by structural rank: distance to the farthest sink.

    Tasks deep in the DAG (large bottom level) gate the most downstream
    work; running them first keeps merge points fed.
    """

    name = "rank"

    def prioritize(self, pending: list, scheduler: KubeScheduler) -> list:
        def key(item):
            idx, pod = item
            ctx = self._context(pod)
            if ctx is None:
                return (0.0, idx)
            return (-float(self.store.rank_of(*ctx)), idx)

        return [p for _, p in sorted(enumerate(pending), key=key)]


class FileSizeStrategy(_StoreBackedStrategy):
    """Prioritize by total input bytes, largest first.

    Heavy-input tasks are usually the long ones in data-intensive
    workflows; starting them early shortens the tail.
    """

    name = "filesize"

    def prioritize(self, pending: list, scheduler: KubeScheduler) -> list:
        def key(item):
            idx, pod = item
            ctx = self._context(pod)
            if ctx is None:
                return (0.0, idx)
            return (-float(self.store.input_bytes_of(*ctx)), idx)

        return [p for _, p in sorted(enumerate(pending), key=key)]


class PredictiveHeftStrategy(_StoreBackedStrategy):
    """HEFT-like: upward rank from *predicted* runtimes, EFT placement.

    The §3.4 composition: CWSI provenance feeds a runtime predictor
    (Lotaru-like), whose estimates weight the upward rank and drive
    earliest-finish-time node selection.  Unseen tasks fall back to a
    unit runtime so structural rank still orders them.
    """

    name = "heft"

    def __init__(
        self,
        store: WorkflowStore,
        predictor,
        default_runtime_s: float = 1.0,
    ):
        super().__init__(store, place_fastest=True)
        self.predictor = predictor
        self.default_runtime_s = default_runtime_s

    def _predicted_runtime(self, name: str) -> float:
        est = self.predictor.predict(name, node_speed=1.0)
        return est if est is not None else self.default_runtime_s

    def prioritize(self, pending: list, scheduler: KubeScheduler) -> list:
        # One rank table per workflow per pass: the predictor only
        # learns in ``observe``, never inside a pass.
        ranks: dict[str, dict] = {}

        def key(item):
            idx, pod = item
            ctx = self._context(pod)
            if ctx is None:
                return (0.0, idx)
            wf_name, task = ctx
            if wf_name not in ranks:
                ranks[wf_name] = upward_ranks(
                    self.store.get(wf_name).workflow, self._predicted_runtime
                )
            return (-ranks[wf_name][task], idx)

        return [p for _, p in sorted(enumerate(pending), key=key)]

    def select_node(self, pod: Pod, candidates: list, scheduler: KubeScheduler) -> Node:
        ctx = self._context(pod)
        if ctx is None:
            chosen = SchedulingStrategy.select_node(self, pod, candidates, scheduler)
            return self._trace_decision(pod, chosen, scheduler)
        _, task = ctx
        nominal = self.predictor.predict(task, node_speed=1.0)
        if nominal is None:
            nominal = self.default_runtime_s
        # Earliest finish time: all candidates are free *now*, so EFT
        # reduces to fastest execution.
        chosen = min(
            candidates, key=lambda n: (nominal / n.spec.speed, n.free_cores, n.id)
        )
        return self._trace_decision(pod, chosen, scheduler)
