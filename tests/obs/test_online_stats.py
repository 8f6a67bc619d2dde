"""Single-pass series scans: idle gaps and sustained rule violations.

``find_idle_gaps`` and ``alerts._violations`` each walk a step series'
change points once, in time order, carrying only the interval still
open; these tests pin that scan on small hand-checked series.
"""

from repro.obs.alerts import _violations
from repro.obs.analyze import find_idle_gaps
from repro.obs.metrics import Gauge


def _gauge(points):
    gauge = Gauge(name="busy", initial=0.0, t0=0.0)
    for t, v in points:
        gauge.record(t, v)
    return gauge


class TestOnlineIdleGaps:
    def test_incremental_feed_matches_batch_wrapper(self):
        gauge = _gauge([(0.0, 4.0), (10.0, 0.0), (14.0, 2.0), (30.0, 0.0),
                        (45.0, 1.0), (50.0, 0.0)])
        gaps = find_idle_gaps(gauge, threshold=0.5, t1=60.0)
        # Every sub-threshold stretch is a gap, its level the highest
        # value inside it; the last one runs to t1.
        assert [(g.t0, g.t1, g.level) for g in gaps] == [
            (10.0, 14.0, 0.0), (30.0, 45.0, 0.0), (50.0, 60.0, 0.0)
        ]

    def test_result_is_repeatable_mid_stream(self):
        gauge = _gauge([(0.0, 0.0), (10.0, 3.0)])
        first = [(g.t0, g.t1) for g in
                 find_idle_gaps(gauge, threshold=0.5, t0=0.0, t1=100.0)]
        # The scan does not consume the series: same answer twice, and
        # the series may grow afterwards.
        assert [(g.t0, g.t1) for g in
                find_idle_gaps(gauge, threshold=0.5, t0=0.0, t1=100.0)] == first
        gauge.record(20.0, 0.0)
        gaps = find_idle_gaps(gauge, threshold=0.5, t0=0.0, t1=100.0)
        # A gap still open at the window end closes there.
        assert [(g.t0, g.t1) for g in gaps] == [(0.0, 10.0), (20.0, 100.0)]


class TestOnlineViolations:
    @staticmethod
    def _scan(points, t_end, for_s):
        # ok(v) = v <= 5
        return _violations(_gauge(points), lambda v: v <= 5.0, 5.0,
                           t_end, for_s)

    def test_sustained_violation_opens_and_resolves(self):
        # Violated on [10, 30), sustained past for_s=5.
        violations = self._scan(
            [(0.0, 1.0), (10.0, 9.0), (20.0, 8.0), (30.0, 2.0), (50.0, 1.0)],
            t_end=50.0, for_s=5.0,
        )
        assert len(violations) == 1
        fired_at, resolved_at, worst = violations[0]
        assert fired_at == 15.0  # open(10) + for_s(5)
        assert resolved_at == 30.0
        assert worst == 9.0

    def test_blip_shorter_than_for_does_not_fire(self):
        violations = self._scan(
            [(0.0, 1.0), (10.0, 9.0), (12.0, 2.0), (50.0, 1.0)],
            t_end=50.0, for_s=5.0,
        )
        assert violations == []

    def test_still_open_violation_reported_unresolved(self):
        violations = self._scan([(0.0, 1.0), (40.0, 9.0)],
                                t_end=50.0, for_s=0.0)
        assert len(violations) == 1
        assert violations[0][1] is None  # never resolved
