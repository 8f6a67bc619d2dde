"""Span-based tracing over simulated time.

A :class:`Tracer` collects :class:`Span` records — named intervals with
a category, an owning component, free-form tags and point-in-time
events — plus standalone :class:`Instant` markers and a
:class:`~repro.obs.metrics.MetricsRegistry`.  One tracer is threaded
through the whole stack via ``Environment.tracer``; every substrate
layer (kernel, resource managers, engines, EnTK, CWS, Atlas, JAWS)
writes into it, so a single trace can regenerate any of the paper's
figures after the run.

Tracing is **off by default and zero-cost when off**: environments
start with the stateless :data:`NULL_TRACER`, whose methods are no-ops
returning a shared null span.  Call :func:`enable_tracing` to install a
real tracer.

Determinism: span ids are sequential per tracer, timestamps come from
the simulated clock, and no wall-clock or hash-ordered state is ever
recorded — identical seeds produce identical traces byte for byte.

Storage is pluggable via the :class:`SpanSink` protocol: the default
:class:`InMemorySink` keeps the historical ``tracer.spans`` list (and
the byte-identical golden digests that rest on it), while
:class:`repro.obs.stream.JsonlSpillSink` spills finished spans to
segmented JSONL files so million-span runs stay constant-memory.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Optional

from repro.obs.metrics import MetricsRegistry


class SpanSink:
    """Receiver of span/instant lifecycle callbacks from a tracer.

    Subclass and override what you need; every hook is a no-op by
    default.  A sink is attached to exactly one tracer (``attach`` is
    called from ``Tracer.__init__``), and the tracer guarantees:

    - ``on_start(span)`` exactly once per span, at creation;
    - ``on_finish(span)`` exactly once per span, at its *first*
      ``finish()`` (never for spans still open at end of run);
    - ``on_instant(instant)`` per standalone point event;
    - ``close()`` once, from ``Tracer.close()`` — flush buffers and
      drain still-open spans here.
    """

    tracer: Optional["Tracer"] = None

    def attach(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def on_start(self, span: "Span") -> None:
        pass

    def on_finish(self, span: "Span") -> None:
        pass

    def on_instant(self, instant: "Instant") -> None:
        pass

    def close(self) -> None:
        pass


class InMemorySink(SpanSink):
    """The default sink: retain every span and instant in lists.

    This is the historical ``Tracer`` behaviour factored behind the
    sink protocol — ``tracer.spans`` / ``tracer.instants`` delegate to
    these lists, creation order is preserved, and the JSONL/Chrome
    exporters read them unchanged, so golden digests are byte-identical
    to the pre-sink layout.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.instants: list[Instant] = []

    def on_start(self, span: "Span") -> None:
        self.spans.append(span)

    def on_instant(self, instant: "Instant") -> None:
        self.instants.append(instant)


class Span:
    """One traced interval.

    Spans are context managers for synchronous sections::

        with tracer.span("bind", category="rm.pod", component="kube") as s:
            s.tag(node=node.id)

    For intervals that cross process switches (almost everything in a
    DES), call :meth:`Tracer.start` and :meth:`finish` explicitly.
    Children must be contained in their parent's interval; the
    instrumentation in :mod:`repro` guarantees this and the exporters
    rely on it.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "category",
        "component",
        "tags",
        "start",
        "end",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        category: str,
        component: str,
        tags: Optional[dict],
        start: float,
        parent_id: Optional[int] = None,
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.component = component
        self.tags = dict(tags) if tags else {}
        self.start = float(start)
        self.end: Optional[float] = None
        #: Point events inside the span: ``(t, name, attrs)`` tuples.
        #: The shared empty tuple until the first :meth:`event`, so
        #: spans that never get one (most) allocate no list.
        self.events: list[tuple] | tuple = ()

    # -- recording -----------------------------------------------------------

    def tag(self, **tags) -> "Span":
        """Attach key/value tags; returns self for chaining."""
        self.tags.update(tags)
        return self

    def event(self, name: str, t: Optional[float] = None, **attrs) -> "Span":
        """Record a point event inside the span."""
        entry = (self._tracer.now() if t is None else float(t), name, attrs)
        if self.events:
            self.events.append(entry)
        else:
            self.events = [entry]
        return self

    def finish(self, t: Optional[float] = None) -> "Span":
        """Close the span (idempotent; the first close wins)."""
        if self.end is None:
            end = self._tracer.now() if t is None else float(t)
            if end < self.start:
                raise ValueError(
                    f"Span {self.name!r} ends at {end} before its "
                    f"start {self.start}"
                )
            self.end = end
            self._tracer._span_finished(self)
        return self

    # -- inspection -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether the span's interval intersects ``[t0, t1]``."""
        end = self.end if self.end is not None else float("inf")
        return self.start <= t1 and end >= t0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.tag(error=repr(exc))
        self.finish()
        return False

    def __repr__(self) -> str:
        dur = f"{self.duration:.3f}s" if self.end is not None else "open"
        return (
            f"<Span #{self.span_id} {self.category}:{self.name!r} "
            f"@{self.component} {dur}>"
        )


class Instant:
    """A standalone point event (e.g. one scheduling decision)."""

    __slots__ = ("t", "name", "category", "component", "tags")

    def __init__(self, t, name, category, component, tags):
        self.t = float(t)
        self.name = name
        self.category = category
        self.component = component
        self.tags = dict(tags) if tags else {}

    def __repr__(self) -> str:
        return f"<Instant {self.category}:{self.name!r} t={self.t}>"


class Tracer:
    """Collects spans, instants and metrics for one run.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (simulated) time.
        :func:`enable_tracing` wires this to ``env.now``.
    trace_kernel:
        Also record a span per simulation process (category
        ``kernel.process``).  Off by default — kernel spans are high
        volume and only useful when debugging the substrate itself.
    sink:
        Span storage (:class:`SpanSink`).  Defaults to a fresh
        :class:`InMemorySink`; pass a
        :class:`repro.obs.stream.JsonlSpillSink` (or a ``TeeSink``
        combining several) for constant-memory runs.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        trace_kernel: bool = False,
        sink: Optional[SpanSink] = None,
    ):
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.trace_kernel = trace_kernel
        self.sink = sink if sink is not None else InMemorySink()
        self.metrics = MetricsRegistry()
        self._next_id = 0
        self._n_instants = 0
        #: Live open-span index: span_id -> span, insertion (= id)
        #: ordered, updated on start/finish so ``open_spans`` is O(open)
        #: instead of a scan over the whole trace.
        self._open: dict[int, Span] = {}
        self._closed = False
        attach = getattr(self.sink, "attach", None)
        if callable(attach):
            attach(self)

    def now(self) -> float:
        return self._clock()

    @property
    def spans(self) -> list:
        """The retained span list (in-memory sinks only).

        Sinks that do not retain spans (e.g. the spill sink) have no
        list to expose; analyze such runs through the sink's own API or
        by reloading its segments with
        :func:`repro.obs.export.tracer_from_jsonl`.
        """
        spans = getattr(self.sink, "spans", None)
        if spans is None:
            raise RuntimeError(
                f"{type(self.sink).__name__} does not retain spans in "
                "memory; use the sink/stream APIs (repro.obs.stream) or "
                "reload its JSONL segments"
            )
        return spans

    @property
    def instants(self) -> list:
        instants = getattr(self.sink, "instants", None)
        if instants is None:
            raise RuntimeError(
                f"{type(self.sink).__name__} does not retain instants "
                "in memory; use the sink/stream APIs (repro.obs.stream)"
            )
        return instants

    # -- recording -----------------------------------------------------------

    def start(
        self,
        name: str,
        category: str = "",
        component: str = "",
        tags: Optional[dict] = None,
        parent: Optional[Span] = None,
        t: Optional[float] = None,
    ) -> Span:
        """Open a new span starting now (or at explicit ``t``)."""
        span = Span(
            self,
            span_id=self._next_id,
            name=name,
            category=category,
            component=component,
            tags=tags,
            start=self.now() if t is None else float(t),
            parent_id=parent.span_id if parent is not None else None,
        )
        self._next_id += 1
        self._open[span.span_id] = span
        self.sink.on_start(span)
        return span

    #: Alias reading naturally in ``with tracer.span(...)`` blocks.
    span = start

    def instant(
        self,
        name: str,
        category: str = "",
        component: str = "",
        tags: Optional[dict] = None,
        t: Optional[float] = None,
    ) -> Instant:
        """Record a standalone point event."""
        inst = Instant(
            self.now() if t is None else t, name, category, component, tags
        )
        self._n_instants += 1
        self.sink.on_instant(inst)
        return inst

    # -- sink plumbing ---------------------------------------------------------

    def _span_finished(self, span: Span) -> None:
        """Called by :meth:`Span.finish` exactly once per span."""
        self._open.pop(span.span_id, None)
        self.sink.on_finish(span)

    def _adopt(self, span: Span) -> None:
        """Register an externally constructed span (trace loaders).

        Routes the span through the sink protocol as if it had been
        started (and, when already closed, finished) by this tracer, and
        keeps the open-span index and id counter consistent.
        """
        self._next_id = max(self._next_id, span.span_id + 1)
        self.sink.on_start(span)
        if span.end is None:
            self._open[span.span_id] = span
        else:
            self.sink.on_finish(span)

    def close(self) -> None:
        """Flush and close the sink (idempotent).

        In-memory runs never need this; spill sinks require it so
        still-open spans and buffered segments reach disk.
        """
        if self._closed:
            return
        self._closed = True
        self.sink.close()

    # -- post-run access -------------------------------------------------------

    def query(self) -> "TraceQuery":
        """A :class:`~repro.obs.query.TraceQuery` over this trace."""
        from repro.obs.query import TraceQuery

        return TraceQuery(self)

    def open_spans(self) -> list:
        return list(self._open.values())

    def __repr__(self) -> str:
        return (
            f"<Tracer spans={self._next_id} instants={self._n_instants} "
            f"metrics={len(self.metrics)}>"
        )


class _NullSpan:
    """Shared, stateless no-op span."""

    __slots__ = ()

    def tag(self, **tags):
        return self

    def event(self, name, t=None, **attrs):
        return self

    def finish(self, t=None):
        return self

    finished = True
    duration = 0.0
    span_id = -1
    parent_id = None
    events = ()
    tags: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "<NullSpan>"


class _NullMetric:
    """Accepts every metric call, records nothing."""

    __slots__ = ()
    name = ""
    kind = "null"

    def record(self, t, value):
        pass

    set = record

    def increment(self, t, delta=1.0):
        pass

    def inc(self, t, n=1.0):
        pass

    def acquire(self, t, amount=1.0):
        pass

    def release(self, t, amount=1.0):
        pass

    def __repr__(self) -> str:
        return "<NullMetric>"


class _NullRegistry:
    """Hands out null metrics; registration is a no-op."""

    __slots__ = ()

    def counter(self, name, component="", t0=0.0):
        return NULL_METRIC

    def gauge(self, name, component="", initial=0.0, t0=0.0):
        return NULL_METRIC

    def utilization(self, name, capacity, component="", t0=0.0):
        return NULL_METRIC

    def register(self, metric, component=""):
        pass

    def items(self):
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "<NullRegistry>"


class NullTracer:
    """The default tracer: every operation is a no-op.

    Stateless and shared (:data:`NULL_TRACER`), so an un-traced run
    pays one attribute read plus one no-op call per instrumentation
    point — within measurement noise even at Frontier scale.
    """

    __slots__ = ()
    enabled = False
    trace_kernel = False
    spans: tuple = ()
    instants: tuple = ()
    sink = None
    metrics = _NullRegistry()

    def now(self) -> float:
        return 0.0

    def start(self, name, category="", component="", tags=None, parent=None, t=None):
        return NULL_SPAN

    span = start

    def instant(self, name, category="", component="", tags=None, t=None):
        return None

    def query(self):
        raise RuntimeError(
            "Tracing is disabled; call repro.obs.enable_tracing(env) "
            "before the run to record a trace"
        )

    def open_spans(self) -> list:
        return []

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "<NullTracer>"


NULL_SPAN = _NullSpan()
NULL_METRIC = _NullMetric()
NULL_TRACER = NullTracer()


#: Active :func:`tracing_hook` callbacks, fired by :func:`enable_tracing`.
_TRACING_HOOKS: list = []


@contextmanager
def tracing_hook(hook):
    """Intercept :func:`enable_tracing` calls made inside the block.

    ``hook(env, sink)`` runs before the tracer is constructed and may
    return a replacement :class:`SpanSink` (or ``None`` to keep the one
    already chosen).  This is how the checkpoint runner wraps a
    scenario's tracer in a spill + snapshot-trigger tee without the
    scenario knowing — scenario builders keep their single plain
    ``enable_tracing(env)`` call.  Hooks compose: each sees the sink the
    previous one produced.
    """
    _TRACING_HOOKS.append(hook)
    try:
        yield hook
    finally:
        _TRACING_HOOKS.remove(hook)


def enable_tracing(
    env, trace_kernel: bool = False, sink: Optional[SpanSink] = None
) -> Tracer:
    """Install a real tracer on ``env`` (any object with ``.now``).

    Returns the tracer; it is also reachable as ``env.tracer`` from
    every component holding the environment.  ``sink`` overrides the
    default in-memory span storage (see :class:`SpanSink`), and any
    active :func:`tracing_hook` may override it again.
    """
    for hook in list(_TRACING_HOOKS):
        replacement = hook(env, sink)
        if replacement is not None:
            sink = replacement
    tracer = Tracer(clock=lambda: env.now, trace_kernel=trace_kernel, sink=sink)
    env.tracer = tracer
    return tracer
