"""Online statistics primitives vs their batch ground truth.

Tolerance contract (documented in docs/OBSERVABILITY.md): the P²
quantile estimator is *exact* for the first five observations and
approximate after that; on the smooth unimodal distributions span
durations follow, the estimate stays within a few percent of the exact
sample quantile.  The streaming pipeline therefore uses P² values only
where approximation is acceptable (summaries, paging thresholds far
from the operating point); verdict-grade numbers go through the exact
stub-store path, which reuses the batch code unchanged.
"""

import math

import numpy as np
import pytest

from repro.obs.alerts import OnlineViolations
from repro.obs.analyze import OnlineIdleGaps, find_idle_gaps
from repro.obs.metrics import Gauge, P2Quantile, RunningStats


class TestRunningStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(7)
        xs = rng.lognormal(3.0, 0.6, size=2000)
        stats = RunningStats()
        for x in xs:
            stats.add(float(x))
        assert stats.n == len(xs)
        assert stats.mean == pytest.approx(float(np.mean(xs)), rel=1e-12)
        assert stats.variance == pytest.approx(float(np.var(xs)), rel=1e-9)
        assert stats.min == float(np.min(xs))
        assert stats.max == float(np.max(xs))
        assert stats.total == pytest.approx(float(np.sum(xs)), rel=1e-12)

    def test_empty_and_single(self):
        stats = RunningStats()
        assert stats.n == 0 and stats.variance == 0.0
        stats.add(4.0)
        assert stats.mean == 4.0 and stats.std == 0.0


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        est = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            est.add(x)
        # Exact nearest-rank (the batch percentile convention) on the
        # retained samples: idx = min(n-1, max(0, round(0.5*3)-1)) = 1.
        assert est.value == 3.0

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_tolerance_on_lognormal(self, p):
        rng = np.random.default_rng(42)
        xs = rng.lognormal(3.0, 0.6, size=5000)
        est = P2Quantile(p)
        for x in xs:
            est.add(float(x))
        exact = float(np.quantile(xs, p))
        # The documented tolerance band: a few percent on smooth
        # unimodal data at this sample size.
        assert est.value == pytest.approx(exact, rel=0.05)

    def test_markers_stay_ordered_on_adversarial_input(self):
        est = P2Quantile(0.9)
        for i in range(200):
            est.add(float((-1) ** i * i))  # alternating sign ramp
        assert math.isfinite(est.value)


class TestOnlineIdleGaps:
    def _gauge(self, points):
        gauge = Gauge(name="busy", initial=0.0, t0=0.0)
        for t, v in points:
            gauge.record(t, v)
        return gauge

    def test_incremental_feed_matches_batch_wrapper(self):
        points = [(0.0, 4.0), (10.0, 0.0), (14.0, 2.0), (30.0, 0.0),
                  (45.0, 1.0), (50.0, 0.0)]
        gauge = self._gauge(points)
        batch = find_idle_gaps(gauge, threshold=0.5, t1=60.0)

        online = OnlineIdleGaps(threshold=0.5, t0=0.0, t1=60.0)
        for t, v in zip(gauge.times, gauge.values):
            online.feed(t, v)
        streamed = online.result()
        assert [(g.t0, g.t1) for g in streamed] == [
            (g.t0, g.t1) for g in batch
        ]

    def test_result_is_repeatable_mid_stream(self):
        online = OnlineIdleGaps(threshold=0.5, t0=0.0, t1=100.0)
        online.feed(0.0, 0.0)
        online.feed(10.0, 3.0)
        first = [(g.t0, g.t1) for g in online.result()]
        # result() must not consume state: same answer twice, and
        # feeding may continue afterwards.
        assert [(g.t0, g.t1) for g in online.result()] == first
        online.feed(20.0, 0.0)
        assert online.result()[-1].t1 == 100.0


class TestOnlineViolations:
    def test_sustained_violation_opens_and_resolves(self):
        # ok(v) = v <= 5; violated on [10, 30), sustained past for_s=5.
        online = OnlineViolations(
            ok=lambda v: v <= 5.0, threshold=5.0, t_end=50.0, for_s=5.0
        )
        for t, v in [(0.0, 1.0), (10.0, 9.0), (20.0, 8.0), (30.0, 2.0),
                     (50.0, 1.0)]:
            online.feed(t, v)
        violations = online.result()
        assert len(violations) == 1
        fired_at, resolved_at, worst = violations[0]
        assert fired_at == 15.0  # open(10) + for_s(5)
        assert resolved_at == 30.0
        assert worst == 9.0

    def test_blip_shorter_than_for_does_not_fire(self):
        online = OnlineViolations(
            ok=lambda v: v <= 5.0, threshold=5.0, t_end=50.0, for_s=5.0
        )
        for t, v in [(0.0, 1.0), (10.0, 9.0), (12.0, 2.0), (50.0, 1.0)]:
            online.feed(t, v)
        assert online.result() == []

    def test_still_open_violation_reported_unresolved(self):
        online = OnlineViolations(
            ok=lambda v: v <= 5.0, threshold=5.0, t_end=50.0, for_s=0.0
        )
        for t, v in [(0.0, 1.0), (40.0, 9.0)]:
            online.feed(t, v)
        violations = online.result()
        assert len(violations) == 1
        assert violations[0][1] is None  # never resolved
