"""Task runtime and resource predictors (§3.4).

Two runtime predictors for the ablation bench:

- :class:`LotaruLikePredictor` — heterogeneity-aware, after Lotaru
  (Bader et al., the paper's ref. 18): observed runtimes are
  normalized by the executing node's speed factor into *nominal*
  runtimes; predictions rescale by the target node's speed.  Learns
  online from provenance traces and falls back to an uncertainty-
  flagged estimate for unseen tasks.
- :class:`NaiveMeanPredictor` — the baseline that ignores where a task
  ran; systematically wrong on heterogeneous clusters.

Plus :class:`MemoryPredictor`, the peak-memory estimator used for
right-sizing requests (wastage ablation).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Optional

from repro.cws.provenance import TaskTrace


class _Welford:
    """Welford online mean/variance."""

    __slots__ = ("n", "mean", "_m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


class LotaruLikePredictor:
    """Online, machine-aware task runtime prediction.

    ``observe(trace)`` folds in one completed execution;
    ``predict(task, node_speed)`` returns the expected runtime on a
    node with that speed factor, or ``None`` for never-seen tasks
    (callers fall back to a default or structural scheduling).
    """

    def __init__(self):
        self._stats: dict[str, _Welford] = defaultdict(_Welford)

    def observe(self, trace: TaskTrace) -> None:
        if not trace.succeeded:
            return
        self._stats[trace.task].add(trace.nominal_runtime)

    def observations(self, task: str) -> int:
        return self._stats[task].n if task in self._stats else 0

    def predict(self, task: str, node_speed: float = 1.0) -> Optional[float]:
        stats = self._stats.get(task)
        if stats is None or stats.n == 0:
            return None
        return stats.mean / node_speed

    def uncertainty(self, task: str) -> Optional[float]:
        """Standard deviation of the nominal-runtime estimate."""
        stats = self._stats.get(task)
        if stats is None or stats.n == 0:
            return None
        return stats.stdev

    def relative_error(self, task: str, node_speed: float, actual: float) -> Optional[float]:
        """|predicted − actual| / actual, for accuracy benches."""
        pred = self.predict(task, node_speed)
        if pred is None or actual <= 0:
            return None
        return abs(pred - actual) / actual


class NaiveMeanPredictor:
    """Heterogeneity-blind baseline: plain mean of observed runtimes."""

    def __init__(self):
        self._stats: dict[str, _Welford] = defaultdict(_Welford)

    def observe(self, trace: TaskTrace) -> None:
        if not trace.succeeded:
            return
        self._stats[trace.task].add(trace.runtime)

    def observations(self, task: str) -> int:
        return self._stats[task].n if task in self._stats else 0

    def predict(self, task: str, node_speed: float = 1.0) -> Optional[float]:
        # node_speed accepted for interface parity, deliberately unused.
        stats = self._stats.get(task)
        if stats is None or stats.n == 0:
            return None
        return stats.mean

    def relative_error(self, task: str, node_speed: float, actual: float) -> Optional[float]:
        pred = self.predict(task, node_speed)
        if pred is None or actual <= 0:
            return None
        return abs(pred - actual) / actual


class MemoryPredictor:
    """Peak-memory prediction: observed max × a safety headroom.

    Under-prediction kills tasks (OOM); over-prediction wastes
    allocatable memory.  The default 10% headroom mirrors common
    right-sizing practice.
    """

    def __init__(self, headroom: float = 1.1):
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")
        self.headroom = headroom
        self._peak: dict[str, float] = {}
        self._count: dict[str, int] = defaultdict(int)

    def observe(self, task: str, memory_gb: float) -> None:
        self._peak[task] = max(self._peak.get(task, 0.0), memory_gb)
        self._count[task] += 1

    def predict(self, task: str) -> Optional[float]:
        peak = self._peak.get(task)
        if peak is None:
            return None
        return peak * self.headroom

    def observations(self, task: str) -> int:
        return self._count[task]
