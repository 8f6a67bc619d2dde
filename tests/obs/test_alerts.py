"""Tests for the SLO rule engine (:mod:`repro.obs.alerts`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.obs.alerts import (
    Alert,
    AlertReport,
    Rule,
    RuleError,
    evaluate_rules,
    parse_expr,
)

from tests.obs.minirun import mini_entk_run


def exec_trace(durations, state_of=None):
    """A trace with one ``entk.exec`` span per duration."""
    tracer = Tracer()
    for i, d in enumerate(durations):
        span = tracer.start(f"t{i}", category="entk.exec", component="p",
                            t=0.0)
        if state_of:
            span.tag(state=state_of(i))
        span.finish(t=d)
    return tracer


class TestRuleParsing:
    @pytest.mark.parametrize(
        "expr,parts",
        [
            ("utilization >= 0.85", ("utilization", ">=", 0.85)),
            ("p99(entk.exec) <= 1500", ("p99(entk.exec)", "<=", 1500.0)),
            ("failed_tasks<=0", ("failed_tasks", "<=", 0.0)),
            ("x != -2.5e-3", ("x", "!=", -0.0025)),
            ("series(pilot/pending) < 5000", ("series(pilot/pending)", "<", 5000.0)),
        ],
    )
    def test_valid_expressions(self, expr, parts):
        assert parse_expr(expr) == parts

    @pytest.mark.parametrize(
        "expr",
        ["", "utilization", "x => 3", "x <= y", "p99() <=", "1 < x"],
    )
    def test_invalid_expressions_raise(self, expr):
        with pytest.raises(RuleError):
            parse_expr(expr)

    @given(
        st.text(max_size=40)
        | st.text(alphabet="px9(._/)<>=!+-e ", max_size=30)
    )
    @settings(max_examples=300, deadline=1000)
    def test_arbitrary_text_raises_only_rule_error(self, expr):
        try:
            lhs, op, threshold = parse_expr(expr)
        except RuleError:
            return
        assert op in ("<", "<=", ">", ">=", "==", "!=")
        assert isinstance(threshold, float)

    def test_bad_severity_rejected(self):
        with pytest.raises(RuleError):
            Rule("x <= 1", severity="fatal")

    def test_default_name_is_the_lhs(self):
        assert Rule("p99(entk.exec) <= 5").name == "p99(entk.exec)"
        assert Rule("x <= 1", name="my-slo").name == "my-slo"


class TestScalarRules:
    def test_context_only_evaluation(self):
        report = evaluate_rules(
            [Rule("utilization >= 0.85", severity="critical")],
            context={"utilization": 0.91},
        )
        [outcome] = report.outcomes
        assert outcome.ok and outcome.value == 0.91
        assert report.ok and report.alerts == []

    def test_violated_scalar_fires_unresolved(self):
        report = evaluate_rules(
            [Rule("utilization >= 0.85", severity="critical")],
            context={"utilization": 0.4},
        )
        [alert] = report.alerts
        assert alert.firing and alert.state == "firing"
        assert alert.value == 0.4
        assert not report.ok

    def test_warning_violation_keeps_report_ok(self):
        report = evaluate_rules(
            [Rule("x <= 1", severity="warning")], context={"x": 5}
        )
        assert not report.outcomes[0].ok
        assert report.ok  # only critical alerts gate
        assert report.active("critical") == []
        assert len(report.active("warning")) == 1

    def test_missing_quantity_raises(self):
        with pytest.raises(RuleError):
            evaluate_rules([Rule("nope <= 1")], context={})

    def test_context_shadows_trace_builtins(self):
        tracer = exec_trace([1.0, 2.0])
        report = evaluate_rules(
            [Rule("makespan <= 10")], trace=tracer, context={"makespan": 99.0}
        )
        assert report.outcomes[0].value == 99.0


class TestTraceAggregates:
    def test_aggregate_functions(self):
        tracer = exec_trace([1.0, 2.0, 3.0, 4.0])
        checks = [
            ("count(entk.exec) == 4", True),
            ("min(entk.exec) >= 1", True),
            ("max(entk.exec) <= 4", True),
            ("mean(entk.exec) == 2.5", True),
            ("sum(entk.exec) == 10", True),
            ("p50(entk.exec) <= 2", True),
            ("p99(entk.exec) <= 3.5", False),
        ]
        report = evaluate_rules(
            [Rule(expr) for expr, _ in checks], trace=tracer
        )
        assert [o.ok for o in report.outcomes] == [ok for _, ok in checks]

    def test_count_of_empty_category_is_zero(self):
        report = evaluate_rules(
            [Rule("count(jaws.call) == 0")], trace=exec_trace([1.0])
        )
        assert report.outcomes[0].ok

    def test_other_aggregates_need_spans(self):
        with pytest.raises(RuleError):
            evaluate_rules(
                [Rule("mean(jaws.call) <= 1")], trace=exec_trace([1.0])
            )

    def test_makespan_and_failed_tasks_builtins(self):
        tracer = exec_trace(
            [5.0, 9.0, 3.0],
            state_of=lambda i: "FAILED" if i == 1 else "DONE",
        )
        report = evaluate_rules(
            [Rule("makespan <= 9"), Rule("failed_tasks <= 0")],
            trace=tracer,
        )
        assert report.outcomes[0].ok
        assert report.outcomes[0].value == pytest.approx(9.0)
        assert not report.outcomes[1].ok
        assert report.outcomes[1].value == 1.0


class TestSeriesRules:
    def make_trace(self, points, t_end=20.0):
        """Trace with one registry gauge ``p/q`` stepping through
        ``points`` and a span to define the evaluation window."""
        tracer = Tracer()
        tracer.start("job", category="rm.job", component="p",
                     t=0.0).finish(t=t_end)
        gauge = tracer.metrics.gauge("q", component="p")
        for t, v in points:
            gauge.record(t, v)
        return tracer

    def test_resolved_violation_is_reported_but_ok(self):
        tracer = self.make_trace([(5.0, 10.0), (8.0, 2.0)])
        report = evaluate_rules(
            [Rule("series(p/q) <= 5", severity="critical")], trace=tracer
        )
        [outcome] = report.outcomes
        [alert] = outcome.alerts
        assert alert.state == "resolved"
        assert (alert.fired_at, alert.resolved_at) == (5.0, 8.0)
        assert alert.value == 10.0  # worst sample during the violation
        assert outcome.ok and report.ok

    def test_outcome_value_is_the_judged_extreme(self):
        tracer = self.make_trace([(5.0, 10.0), (8.0, 2.0)])
        upper, lower = evaluate_rules(
            [Rule("series(p/q) <= 50"), Rule("series(p/q) >= 0")], trace=tracer
        ).outcomes
        # The peak the upper bound holds over, not the last sample (2.0).
        assert upper.value == 10.0
        assert lower.value == 0.0

    def test_unrecovered_violation_fires(self):
        tracer = self.make_trace([(5.0, 10.0)])
        report = evaluate_rules(
            [Rule("series(p/q) <= 5", severity="critical")], trace=tracer
        )
        [alert] = report.alerts
        assert alert.firing and not report.ok

    def test_for_s_suppresses_short_violations(self):
        points = [(5.0, 10.0), (6.0, 0.0), (10.0, 10.0), (18.0, 0.0)]
        tracer = self.make_trace(points)
        report = evaluate_rules(
            [Rule("series(p/q) <= 5", for_s=3.0)], trace=tracer
        )
        # The 1 s blip at t=5 never fires; the 8 s violation at t=10
        # fires after the 3 s hold.
        [alert] = report.alerts
        assert (alert.fired_at, alert.resolved_at) == (13.0, 18.0)

    def test_unknown_metric_raises(self):
        with pytest.raises(RuleError):
            evaluate_rules(
                [Rule("series(p/nope) <= 5")], trace=self.make_trace([])
            )


class TestAlertSpans:
    def test_alerts_recorded_back_into_trace(self):
        tracer = exec_trace([5.0], state_of=lambda i: "FAILED")
        report = evaluate_rules(
            [Rule("failed_tasks <= 0", severity="critical")], trace=tracer
        )
        assert not report.ok
        [span] = [s for s in tracer.spans if s.category == "obs.alert"]
        assert span.component == "slo"
        assert span.tags["severity"] == "critical"
        assert span.tags["state"] == "firing"
        assert [e[1] for e in span.events] == ["firing"]
        assert span.finished

    def test_resolved_alert_span_closes_at_resolution(self):
        tracer = Tracer()
        tracer.start("job", category="rm.job", component="p",
                     t=0.0).finish(t=20.0)
        gauge = tracer.metrics.gauge("q", component="p")
        gauge.record(5.0, 10.0)
        gauge.record(8.0, 0.0)
        evaluate_rules([Rule("series(p/q) <= 5")], trace=tracer)
        [span] = [s for s in tracer.spans if s.category == "obs.alert"]
        assert span.end == 8.0
        assert [e[1] for e in span.events] == ["firing", "resolved"]

    def test_record_false_leaves_trace_untouched(self):
        tracer = exec_trace([5.0], state_of=lambda i: "FAILED")
        before = len(tracer.spans)
        evaluate_rules(
            [Rule("failed_tasks <= 0")], trace=tracer, record=False
        )
        assert len(tracer.spans) == before


class TestReportShape:
    def test_to_dict_and_summary_rows(self):
        report = evaluate_rules(
            [
                Rule("x <= 1", severity="critical"),
                Rule("y >= 0", severity="info"),
            ],
            context={"x": 3.0, "y": 1.0},
        )
        doc = report.to_dict()
        assert doc["ok"] is False
        assert [r["ok"] for r in doc["rules"]] == [False, True]
        rows = report.summary_rows()
        assert rows[0][:3] == ["x", "critical", "FIRING"]
        assert rows[1][:3] == ["y", "info", "ok"]

    def test_empty_report_is_ok(self):
        report = AlertReport()
        assert report.ok and report.alerts == []


class TestOnRealRun:
    def test_e2_slo_suite_passes(self):
        profile, tracer = mini_entk_run()
        report = evaluate_rules(
            [
                Rule("utilization >= 0.85", severity="critical"),
                Rule("failed_tasks <= 0", severity="critical"),
                Rule("count(entk.exec) >= 400", severity="critical"),
                Rule("series(entk-pilot-0/executing) <= 50",
                     severity="critical"),
            ],
            trace=tracer,
            context={"utilization": profile.core_utilization},
        )
        assert report.ok
        assert all(o.ok for o in report.outcomes)
        # No violation -> no alert spans added.
        assert not [s for s in tracer.spans if s.category == "obs.alert"]
