"""Unified observability layer: span tracing, metrics and trace queries.

Typical use::

    from repro.obs import enable_tracing
    from repro.obs.export import write_chrome_trace

    env = Environment()
    tracer = enable_tracing(env)
    ...  # build components, run the simulation
    conc = tracer.query().concurrency(category="entk.exec")
    write_chrome_trace(tracer, "run.trace.json")

Tracing is opt-in; without :func:`enable_tracing` every instrumentation
point hits the shared :data:`NULL_TRACER` and records nothing.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    UtilizationTracker,
)
from repro.obs.tracer import (
    NULL_METRIC,
    NULL_SPAN,
    NULL_TRACER,
    InMemorySink,
    Instant,
    NullTracer,
    Span,
    SpanSink,
    Tracer,
    enable_tracing,
    tracing_hook,
)
from repro.obs.query import TraceQuery
from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    tracer_from_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.analyze import (
    PHASES,
    CriticalPath,
    IdleGap,
    OverheadDecomposition,
    PathSegment,
    Straggler,
    critical_path,
    decompose_overheads,
    find_idle_gaps,
    find_stragglers,
    pilot_components,
)
from repro.obs.alerts import (
    Alert,
    AlertReport,
    Rule,
    RuleError,
    evaluate_rules,
)
from repro.obs.stream import (
    JsonlSpillSink,
    StubTrace,
    TeeSink,
    tracer_from_segments,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "UtilizationTracker",
    "Instant",
    "Span",
    "SpanSink",
    "InMemorySink",
    "Tracer",
    "NullTracer",
    "NULL_METRIC",
    "NULL_SPAN",
    "NULL_TRACER",
    "enable_tracing",
    "tracing_hook",
    "TraceQuery",
    "to_chrome_trace",
    "to_jsonl",
    "tracer_from_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "PHASES",
    "CriticalPath",
    "PathSegment",
    "IdleGap",
    "OverheadDecomposition",
    "Straggler",
    "critical_path",
    "decompose_overheads",
    "find_idle_gaps",
    "find_stragglers",
    "pilot_components",
    "Alert",
    "AlertReport",
    "Rule",
    "RuleError",
    "evaluate_rules",
    "StubTrace",
    "JsonlSpillSink",
    "TeeSink",
    "tracer_from_segments",
]
