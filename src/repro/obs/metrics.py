"""Metric primitives shared by every substrate layer.

This module is the *single* implementation of time-series accounting in
:mod:`repro`.  :mod:`repro.simkernel.monitor` re-exports these classes
under their historical names (``TimeSeriesMonitor`` is :class:`Gauge`),
so the kernel, the cluster, the EnTK agent and the benchmarks all
record into one family of metric objects that a
:class:`MetricsRegistry` can enumerate and export.

- :class:`Gauge` — a piecewise-constant signal over simulated time with
  integration, resampling and time averages (concurrency curves, queue
  lengths — the Fig 5 quantities).
- :class:`Counter` — a monotonically non-decreasing gauge (cumulative
  scheduled/launched/completed counts; throughputs are its slopes).
- :class:`UtilizationTracker` — busy-interval accounting against a
  fixed capacity (the Fig 4 "resource utilization").
- :class:`MetricsRegistry` — per-component, get-or-create store of the
  above, exportable as plain dicts.
"""

from __future__ import annotations

import bisect
from typing import Optional

import numpy as np

from repro.sanitizer import hooks


class Gauge:
    """Records a piecewise-constant signal over simulated time.

    The signal holds each recorded value until the next record.  All
    derived statistics (time average, integral, resampling) treat it as
    a right-open step function.
    """

    kind = "gauge"

    def __init__(self, name: str = "", initial: float = 0.0, t0: float = 0.0):
        self.name = name
        self.times: list[float] = [t0]
        self.values: list[float] = [float(initial)]

    def record(self, t: float, value: float) -> None:
        """Record that the signal equals ``value`` from time ``t`` on."""
        if hooks.ACTIVE is not None:
            # Commutative for simsan: a same-instant record reads the
            # *current* state, so the last writer lands the same final
            # value in any batch order (same-t records overwrite).
            hooks.ACTIVE.record(self, self.name or "gauge", "c")
        if t < self.times[-1]:
            raise ValueError(
                f"Non-monotonic record: t={t} < last t={self.times[-1]}"
            )
        if t == self.times[-1]:
            self.values[-1] = float(value)
        else:
            self.times.append(float(t))
            self.values.append(float(value))

    # ``set`` reads better at metric call sites; ``record`` is the
    # historical monitor name.
    set = record

    def increment(self, t: float, delta: float = 1.0) -> None:
        """Record ``current + delta`` at time ``t``."""
        self.record(t, self.values[-1] + delta)

    @property
    def current(self) -> float:
        return self.values[-1]

    @property
    def peak(self) -> float:
        return max(self.values)

    def value_at(self, t: float) -> float:
        """Signal value at time ``t`` (last record at or before ``t``)."""
        idx = bisect.bisect_right(self.times, t) - 1
        if idx < 0:
            raise ValueError(f"t={t} precedes first record {self.times[0]}")
        return self.values[idx]

    def integral(self, t_end: Optional[float] = None) -> float:
        """Integral of the step function from first record to ``t_end``.

        ``t_end`` may fall before the last record; segments past it
        contribute nothing.
        """
        t_end = self.times[-1] if t_end is None else t_end
        ts = np.asarray(self.times)
        vs = np.asarray(self.values)
        seg_ends = np.minimum(np.append(ts[1:], max(t_end, ts[-1])), t_end)
        widths = np.clip(seg_ends - ts, 0.0, None)
        return float(np.dot(widths, vs))

    def time_average(self, t_end: Optional[float] = None) -> float:
        """Time-weighted mean of the signal."""
        t_end = self.times[-1] if t_end is None else t_end
        span = t_end - self.times[0]
        if span <= 0:
            return self.values[0]
        return self.integral(t_end) / span

    def resample(self, n: int = 200, t_end: Optional[float] = None):
        """Return ``(times, values)`` arrays sampled on a uniform grid."""
        t_end = self.times[-1] if t_end is None else t_end
        grid = np.linspace(self.times[0], t_end, n)
        idx = np.searchsorted(self.times, grid, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return grid, np.asarray(self.values)[idx]

    def series(self) -> tuple:
        """The raw ``(times, values)`` change points as tuples."""
        return tuple(self.times), tuple(self.values)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "times": list(self.times),
            "values": list(self.values),
        }

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name!r} points={len(self.times)} "
            f"current={self.current}>"
        )


class Counter(Gauge):
    """A gauge that can only go up — cumulative event counts.

    Throughputs (Fig 5's 269 tasks/s and 51 tasks/s) are slopes of
    counters: :meth:`rate` over a window.
    """

    kind = "counter"

    def record(self, t: float, value: float) -> None:
        if value < self.values[-1] - 1e-12:
            raise ValueError(
                f"Counter {self.name!r} cannot decrease: "
                f"{value} < {self.values[-1]}"
            )
        super().record(t, value)

    set = record

    def inc(self, t: float, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("Counter increments must be non-negative")
        self.increment(t, n)

    def rate(self, t_start: float, t_end: float) -> float:
        """Mean events/second over ``[t_start, t_end]``."""
        span = t_end - t_start
        if span <= 0:
            return 0.0
        return (self.value_at(t_end) - self.value_at(t_start)) / span


class UtilizationTracker:
    """Busy-capacity accounting against a fixed total capacity.

    Call :meth:`acquire`/:meth:`release` as capacity units come into and
    out of use.  :meth:`utilization` is the busy integral divided by
    ``capacity × span`` — the quantity Fig 4 of the paper reports as
    "resource utilization".
    """

    kind = "utilization"

    def __init__(self, capacity: float, name: str = "", t0: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        self.name = name
        self.busy = Gauge(name=f"{name}.busy", initial=0.0, t0=t0)

    def acquire(self, t: float, amount: float = 1.0) -> None:
        """Mark ``amount`` capacity units busy from time ``t``."""
        new = self.busy.current + amount
        if new > self.capacity + 1e-9:
            raise ValueError(
                f"Oversubscription: busy {new} > capacity {self.capacity}"
            )
        self.busy.record(t, new)

    def release(self, t: float, amount: float = 1.0) -> None:
        """Mark ``amount`` capacity units free from time ``t``."""
        new = self.busy.current - amount
        if new < -1e-9:
            raise ValueError(f"Releasing more than acquired: {new}")
        self.busy.record(t, max(new, 0.0))

    def utilization(self, t_start: Optional[float] = None, t_end: Optional[float] = None) -> float:
        """Fraction of capacity-time in use over ``[t_start, t_end]``."""
        t_start = self.busy.times[0] if t_start is None else t_start
        t_end = self.busy.times[-1] if t_end is None else t_end
        span = t_end - t_start
        if span <= 0:
            return 0.0
        total = self.busy.integral(t_end) - self.busy.integral(t_start)
        return total / (self.capacity * span)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "capacity": self.capacity,
            "times": list(self.busy.times),
            "values": list(self.busy.values),
        }

    def __repr__(self) -> str:
        return (
            f"<UtilizationTracker {self.name!r} busy={self.busy.current}"
            f"/{self.capacity}>"
        )


class MetricsRegistry:
    """Per-component, named store of metric objects.

    Metrics are keyed ``(component, name)``.  The accessors get-or-
    create, so independent layers can share a series by agreeing on the
    key; :meth:`register` adopts a metric a component already created
    (the EnTK agent and the cluster register their own recorders here,
    making the registry the single source of truth the benchmarks
    query).
    """

    def __init__(self):
        self._metrics: dict[tuple[str, str], object] = {}

    # -- get-or-create accessors --------------------------------------------

    def counter(self, name: str, component: str = "", t0: float = 0.0) -> Counter:
        return self._get_or_create(name, component, Counter, t0=t0)

    def gauge(
        self, name: str, component: str = "", initial: float = 0.0, t0: float = 0.0
    ) -> Gauge:
        return self._get_or_create(name, component, Gauge, initial=initial, t0=t0)

    def utilization(
        self, name: str, capacity: float, component: str = "", t0: float = 0.0
    ) -> UtilizationTracker:
        key = (component, name)
        metric = self._metrics.get(key)
        if metric is None:
            metric = UtilizationTracker(capacity=capacity, name=name, t0=t0)
            self._metrics[key] = metric
        elif not isinstance(metric, UtilizationTracker):
            raise TypeError(
                f"Metric {key} already registered as {type(metric).__name__}"
            )
        return metric

    def _get_or_create(self, name, component, cls, **kwargs):
        key = (component, name)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, **kwargs)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"Metric {key} already registered as {type(metric).__name__}"
            )
        return metric

    # -- adoption & lookup ---------------------------------------------------

    def register(self, metric, component: str = "") -> None:
        """Adopt an externally created metric under ``(component, name)``."""
        key = (component, metric.name)
        existing = self._metrics.get(key)
        if existing is not None and existing is not metric:
            raise ValueError(f"Metric {key} already registered")
        self._metrics[key] = metric

    def get(self, name: str, component: str = ""):
        return self._metrics[(component, name)]

    def __contains__(self, key) -> bool:
        if isinstance(key, str):
            key = ("", key)
        return tuple(key) in self._metrics

    def items(self):
        """``((component, name), metric)`` pairs in deterministic order."""
        return sorted(self._metrics.items(), key=lambda kv: kv[0])

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dict(self) -> dict:
        """``{"component/name": metric.to_dict()}`` for export."""
        return {
            f"{comp}/{name}": metric.to_dict()
            for (comp, name), metric in self.items()
        }

    def __repr__(self) -> str:
        return f"<MetricsRegistry metrics={len(self._metrics)}>"
