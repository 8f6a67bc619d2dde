"""SLO rules and alerting over recorded traces.

A :class:`Rule` is a comparison between a measured quantity and a
threshold — ``"utilization >= 0.85"``, ``"p99(entk.exec) <= 1500"``,
``"failed_tasks <= 0"`` — with a severity.  :func:`evaluate_rules`
resolves each rule's left-hand side against a trace (plus caller
context), checks it **on simulated time**, and returns an
:class:`AlertReport`:

- Scalar quantities (context values, span aggregates) are judged once
  at end of run: a violated rule yields an alert that fires at the end
  of the window and never resolves.
- Series quantities (a :class:`~repro.obs.metrics.Gauge`, e.g. a
  queue length or a cumulative-utilization curve) are walked over
  their change points: every maximal violation interval sustained for
  at least ``for_s`` becomes one alert with firing and — if the series
  recovers — resolution times.

Every alert is recorded back into the trace as a span (category
``obs.alert``, component ``slo``) so exported traces carry their own
verdicts, the WfBench "benchmarks must emit machine-readable
performance verdicts" requirement.

Quantities are exact: percentiles are nearest-rank and sums add the
sorted sample, so a verdict depends only on the span set.  A trace read
back from disk (:class:`repro.obs.stream.StubTrace`) is judged by the
same code and gets the same verdict.

Left-hand-side grammar::

    utilization >= 0.85          # scalar from the evaluation context
    p99(entk.exec) <= 1500       # percentile over span durations
    mean(jaws.call) < 600        # also: p50/p90/p95/p99/min/max/mean
    count(entk.exec) >= 400      # number of finished spans
    sum(atlas.step) <= 1e6       # total span-seconds
    series(pilot/pending_launch) <= 5000   # registry gauge, over time

Everything is deterministic: no wall clock, rules evaluated in the
order given, span ids sequential.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.obs.metrics import Gauge, UtilizationTracker
from repro.obs.query import TraceQuery
from repro.obs.tracer import Tracer

SEVERITIES = ("info", "warning", "critical")

_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_RULE_RE = re.compile(
    r"^\s*(?P<lhs>[A-Za-z_][\w.]*(?:\(\s*[^()]*?\s*\))?)\s*"
    r"(?P<op><=|>=|==|!=|<|>)\s*"
    r"(?P<rhs>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*$"
)

_AGG_RE = re.compile(r"^(?P<fn>p50|p90|p95|p99|min|max|mean|count|sum)\((?P<arg>[^()]*)\)$")
_SERIES_RE = re.compile(r"^series\((?P<arg>[^()]*)\)$")


class RuleError(ValueError):
    """A rule that cannot be parsed or resolved."""


@dataclass(frozen=True)
class Rule:
    """One SLO: ``<quantity> <op> <threshold>`` at a severity."""

    expr: str
    severity: str = "warning"
    name: str = ""
    for_s: float = 0.0  # sustained violation required before firing

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise RuleError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )
        lhs, op, rhs = parse_expr(self.expr)
        if not self.name:
            object.__setattr__(self, "name", lhs)

    @property
    def parts(self) -> tuple:
        return parse_expr(self.expr)


def parse_expr(expr: str) -> tuple:
    """``(lhs, op, threshold)`` from an SLO expression string."""
    m = _RULE_RE.match(expr)
    if not m:
        raise RuleError(
            f"cannot parse SLO expression {expr!r}; expected "
            "'<quantity> <op> <number>'"
        )
    return m.group("lhs"), m.group("op"), float(m.group("rhs"))


@dataclass
class Alert:
    """One rule violation: when it fired and whether it resolved."""

    rule: str
    expr: str
    severity: str
    fired_at: float
    resolved_at: Optional[float]  # None = still firing at end of run
    value: float  # worst value observed during the violation

    @property
    def firing(self) -> bool:
        return self.resolved_at is None

    @property
    def state(self) -> str:
        return "firing" if self.firing else "resolved"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "expr": self.expr,
            "severity": self.severity,
            "state": self.state,
            "fired_at": self.fired_at,
            "resolved_at": self.resolved_at,
            "value": self.value,
        }


@dataclass
class RuleOutcome:
    """Final verdict of one rule after evaluation."""

    rule: Rule
    ok: bool  # no alert active at end of run
    value: Optional[float]  # final/scalar value of the quantity
    alerts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.name,
            "expr": self.rule.expr,
            "severity": self.rule.severity,
            "ok": self.ok,
            "value": self.value,
            "alerts": [a.to_dict() for a in self.alerts],
        }


@dataclass
class AlertReport:
    """All rule outcomes of one evaluation pass."""

    outcomes: list = field(default_factory=list)
    window: tuple = (0.0, 0.0)

    @property
    def alerts(self) -> list:
        return [a for o in self.outcomes for a in o.alerts]

    def active(self, severity: Optional[str] = None) -> list:
        """Alerts still firing at end of run (optionally one severity)."""
        return [
            a
            for a in self.alerts
            if a.firing and (severity is None or a.severity == severity)
        ]

    @property
    def ok(self) -> bool:
        """No critical alert left firing — the CI gate."""
        return not self.active("critical")

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "window": list(self.window),
            "rules": [o.to_dict() for o in self.outcomes],
        }

    def summary_rows(self) -> list:
        """``[name, severity, verdict, value, expr]`` rows for tables."""
        rows = []
        for o in self.outcomes:
            verdict = "ok"
            if o.alerts:
                verdict = (
                    "FIRING" if any(a.firing for a in o.alerts) else "resolved"
                )
            value = "n/a" if o.value is None else f"{o.value:g}"
            rows.append([o.rule.name, o.rule.severity, verdict, value, o.rule.expr])
        return rows


def is_failed(span) -> bool:
    """True when a span's terminal ``state`` tag is FAILED (any case)."""
    return str(span.tags.get("state", "")).upper() == "FAILED"


class _SortedSample:
    """Exact aggregates over one category's sorted span durations."""

    __slots__ = ("values", "n", "total")

    def __init__(self, durations):
        self.values = sorted(durations)
        self.n = len(self.values)
        self.total = sum(self.values)

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    @property
    def mean(self) -> float:
        return self.total / self.n


class _TraceQuantities:
    """Rule quantities over a trace, computed exactly.

    Sums add the sorted sample and percentiles are nearest-rank on it,
    so verdicts depend only on the span set.
    """

    def __init__(self, query: TraceQuery):
        self.query = query
        self.metrics = query.tracer.metrics
        self._samples: dict[str, _SortedSample] = {}

    def stats(self, category: str) -> _SortedSample:
        sample = self._samples.get(category)
        if sample is None:
            sample = self._samples[category] = _SortedSample(
                self.query.durations(category=category)
            )
        return sample

    def quantile(self, category: str, p: float) -> float:
        values = self.stats(category).values
        # Nearest-rank on the sorted sample: deterministic, no interp.
        return values[min(len(values) - 1, max(0, round(p * len(values)) - 1))]

    @property
    def makespan(self) -> float:
        spans = [s for s in self.query.tracer.spans if s.end is not None]
        if not spans:
            return 0.0
        return max(s.end for s in spans) - min(s.start for s in spans)

    @property
    def failed_tasks(self) -> int:
        return sum(1 for s in self.query.tracer.spans if is_failed(s))

    @property
    def window(self) -> tuple:
        spans = self.query.tracer.spans
        if not spans:
            return (0.0, 0.0)
        t0 = min(s.start for s in spans)
        return (t0, max((s.end for s in spans if s.end is not None), default=t0))


def _resolve(lhs: str, context: dict, source):
    """Resolve a rule's quantity: context first, then trace builtins."""
    if lhs in context:
        return context[lhs]

    agg = _AGG_RE.match(lhs)
    if agg:
        fn, arg = agg.group("fn"), agg.group("arg").strip()
        stats = source.stats(arg)
        if fn == "count":
            return float(stats.n)
        if not stats.n:
            raise RuleError(f"no finished spans in category {arg!r}")
        if fn == "sum":
            return float(stats.total)
        if fn in ("min", "max", "mean"):
            return getattr(stats, fn)
        return source.quantile(arg, float(fn[1:]) / 100.0)

    series = _SERIES_RE.match(lhs)
    if series:
        arg = series.group("arg").strip()
        comp, _, name = arg.rpartition("/")
        if (comp, name) not in source.metrics:
            raise RuleError(f"no metric {arg!r} in the trace registry")
        return source.metrics.get(name, component=comp)

    if lhs == "makespan":
        return source.makespan
    if lhs == "failed_tasks":
        return float(source.failed_tasks)
    raise RuleError(
        f"cannot resolve quantity {lhs!r}: not in context and not a "
        "trace builtin (makespan, failed_tasks, p*/min/max/mean/count/"
        "sum(category), series(component/name))"
    )


def _violations(
    gauge: Gauge, ok, threshold: float, t_end: float, for_s: float
) -> list:
    """Maximal sustained intervals where ``ok(value)`` is false.

    Walks the series' change points up to the first one at or past
    ``t_end``.  Returns ``(fired_at, resolved_at_or_None, worst_value)``
    triples; the worst value is the violating sample farthest from the
    threshold.  A violation still open after the walk is judged over
    the whole series extent (points past ``t_end`` included).
    """
    threshold, t_end, for_s = float(threshold), float(t_end), float(for_s)
    out = []
    open_at = worst = None
    for t, value in zip(gauge.times, gauge.values):
        t, value = float(t), float(value)
        if not ok(value):
            if open_at is None:
                open_at, worst = t, value
            elif abs(value - threshold) > abs(worst - threshold):
                worst = value
        elif open_at is not None:
            if t - open_at >= for_s:
                out.append((open_at + for_s, t, worst))
            open_at = None
        if t >= t_end:
            break
    if open_at is not None:
        if max(t_end, float(gauge.times[-1])) - open_at >= for_s:
            out.append((open_at + for_s, None, worst))
    return out


def _outcome(rule: Rule, quantity, t_end: float) -> RuleOutcome:
    """Judge one resolved quantity: walk a series, or test a scalar once.

    A :class:`~repro.obs.metrics.Gauge` (or a
    :class:`~repro.obs.metrics.UtilizationTracker`'s busy gauge) yields
    one alert per sustained violation interval; a scalar that violates
    its threshold yields one alert firing at ``t_end``.  A series
    outcome's ``value`` is the extreme the rule bounds over the judged
    samples: the maximum for ``<``/``<=``, the minimum for ``>``/``>=``,
    and the last value for ``==``/``!=``.
    """
    _, op, threshold = rule.parts
    ok_fn = _OPS[op]
    if isinstance(quantity, UtilizationTracker):
        quantity = quantity.busy
    if isinstance(quantity, Gauge):
        upper = op in ("<", "<=")
        extreme = None

        def ok(v: float) -> bool:
            # _violations judges each walked sample through this call
            # once, so the extreme is kept in the same walk.
            nonlocal extreme
            if extreme is None or (v > extreme if upper else v < extreme):
                extreme = v
            return ok_fn(v, threshold)

        violations = _violations(quantity, ok, threshold, t_end, rule.for_s)
        value = quantity.current
        if op in ("<", "<=", ">", ">=") and extreme is not None:
            value = extreme
    else:
        value = float(quantity)
        violations = [] if ok_fn(value, threshold) else [(t_end, None, value)]
    alerts = [
        Alert(
            rule=rule.name,
            expr=rule.expr,
            severity=rule.severity,
            fired_at=fired,
            resolved_at=resolved,
            value=worst,
        )
        for fired, resolved, worst in violations
    ]
    ok = not any(a.firing for a in alerts)
    return RuleOutcome(rule=rule, ok=ok, value=value, alerts=alerts)


def evaluate_rules(
    rules: list,
    trace: Union[Tracer, TraceQuery, None] = None,
    context: Optional[dict] = None,
    record: bool = True,
) -> AlertReport:
    """Evaluate SLO rules against a trace and/or scalar context.

    ``context`` maps quantity names to scalars (or Gauges) the caller
    already measured — e.g. ``{"utilization": profile.core_utilization}``.
    ``record=True`` (default) writes each alert back into the tracer as
    an ``obs.alert`` span with firing/resolution times and tags.
    """
    context = dict(context or {})
    source = None
    if trace is not None:
        query = trace if isinstance(trace, TraceQuery) else TraceQuery(trace)
        source = _TraceQuantities(query)
    window = source.window if source is not None else (0.0, 0.0)
    outcomes = []
    for rule in rules:
        lhs = rule.parts[0]
        if source is None and lhs not in context:
            raise RuleError(
                f"rule {rule.expr!r} needs a trace or a context value"
            )
        outcomes.append(_outcome(rule, _resolve(lhs, context, source), window[1]))
    report = AlertReport(outcomes=outcomes, window=window)
    if record and source is not None and source.query.tracer.enabled:
        _record_alert_spans(source.query.tracer, report, report.window[1])
    return report


def _record_alert_spans(tracer: Tracer, report: AlertReport, t_end: float) -> None:
    """Write firing/resolved alert spans back into the trace."""
    for outcome in report.outcomes:
        for alert in outcome.alerts:
            span = tracer.start(
                alert.rule,
                category="obs.alert",
                component="slo",
                t=alert.fired_at,
                tags={
                    "expr": alert.expr,
                    "severity": alert.severity,
                    "value": alert.value,
                    "state": alert.state,
                },
            )
            span.event("firing", t=alert.fired_at)
            if alert.resolved_at is not None:
                span.event("resolved", t=alert.resolved_at)
            span.finish(
                t=alert.resolved_at
                if alert.resolved_at is not None
                else max(t_end, alert.fired_at)
            )
