"""Tarema-style heterogeneity-aware allocation (§3.4, ref. 19).

Tarema labels cluster nodes into performance classes and workflow
tasks into demand classes, then matches classes at allocation time so
long tasks land on fast nodes and short tasks don't waste them.

Implementation: nodes are split into ``n_classes`` groups by speed
quantiles; tasks are classified by their observed nominal runtime
quantile (from provenance).  The resulting
:class:`~repro.rm.kube.SchedulingStrategy` steers each task toward its
matching node class, degrading gracefully (any fitting node) when the
preferred class is full.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cws.predictors import LotaruLikePredictor
from repro.cws.store import WorkflowStore
from repro.cws.strategies import order_by_score
from repro.rm.kube import KubeScheduler, Pod, SchedulingStrategy
from repro.cluster import Cluster
from repro.cluster.node import Node


class TaremaAllocator(SchedulingStrategy):
    """Class-matching node selection with rank-based prioritization."""

    name = "tarema"

    def __init__(
        self,
        cluster: Cluster,
        store: WorkflowStore,
        predictor: LotaruLikePredictor,
        n_classes: int = 3,
    ):
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        self.cluster = cluster
        self.store = store
        self.predictor = predictor
        self.n_classes = n_classes
        self._node_class: dict[str, int] = {}
        self._speed_cuts: Optional[np.ndarray] = None
        self.label_nodes()

    # -- labelling ----------------------------------------------------------

    def label_nodes(self) -> dict:
        """(Re)compute node classes from speed quantiles.

        Class 0 is slowest, ``n_classes - 1`` fastest.  Returns
        node_id -> class for inspection.
        """
        speeds = np.array([n.spec.speed for n in self.cluster.nodes])
        qs = np.quantile(speeds, np.linspace(0, 1, self.n_classes + 1)[1:-1])
        self._speed_cuts = qs
        self._node_class = {
            n.id: int(np.searchsorted(qs, n.spec.speed, side="right"))
            for n in self.cluster.nodes
        }
        return dict(self._node_class)

    def node_class(self, node_id: str) -> int:
        return self._node_class[node_id]

    def task_class(self, task: str) -> Optional[int]:
        """Demand class from the task's predicted nominal runtime.

        Classified against the distribution of *all* known task
        predictions; None when the task has no history yet.
        """
        mine = self.predictor.predict(task, node_speed=1.0)
        if mine is None:
            return None
        known = [
            self.predictor.predict(t, node_speed=1.0)
            for t in self._known_tasks()
        ]
        known = [k for k in known if k is not None]
        if len(known) < 2:
            return self.n_classes - 1  # nothing to compare against: assume hungry
        cuts = np.quantile(known, np.linspace(0, 1, self.n_classes + 1)[1:-1])
        return int(np.searchsorted(cuts, mine, side="right"))

    def _known_tasks(self) -> list:
        return list(self.predictor._stats.keys())

    # -- scheduling hooks ------------------------------------------------------

    def prioritize(self, pending: list, scheduler: KubeScheduler) -> list:
        return order_by_score(pending, self.store, self.store.rank_of)

    def select_node(self, pod: Pod, candidates: list, scheduler: KubeScheduler) -> Node:
        task = pod.labels.get("task")
        tclass = self.task_class(task) if task else None
        if tclass is None:
            return super().select_node(pod, candidates, scheduler)
        matching = [c for c in candidates if self._node_class[c.id] == tclass]
        pool = matching or candidates
        # Within the class: best fit; across classes (fallback): the
        # class nearest the task's, preferring slower-than-needed over
        # stealing top nodes.
        if not matching:
            pool = sorted(
                candidates,
                key=lambda c: (
                    abs(self._node_class[c.id] - tclass),
                    self._node_class[c.id],
                    c.id,
                ),
            )[:1]
        return min(pool, key=lambda n: (n.free_cores, n.id))
