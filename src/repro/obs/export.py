"""Trace exporters: Chrome-trace/Perfetto JSON and flat JSONL.

Both exporters are deterministic functions of the trace contents — no
wall-clock timestamps, no hash ordering — so identical simulation seeds
produce byte-identical files (the property the determinism tests pin).

Chrome-trace output loads in ``chrome://tracing`` and
https://ui.perfetto.dev: components become processes, concurrent spans
are fanned out over per-component lanes (threads) such that every
lane's ``B``/``E`` events form a balanced, properly nested bracket
sequence, and gauges/counters become ``C`` counter tracks.
"""

from __future__ import annotations

import json
import operator
from typing import Iterable, Iterator, Optional

from repro.obs.tracer import Span, Tracer

#: Simulated seconds → chrome-trace microseconds.
_US = 1_000_000.0


def _json_safe(value):
    """Coerce a tag/attr value to something JSON-serializable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return _json_safe(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def _safe_tags(tags: dict) -> dict:
    return {str(k): _json_safe(v) for k, v in tags.items()}


def _assign_lanes(spans: list[Span]) -> dict[int, list[Span]]:
    """Partition finished spans into lanes of properly nested intervals.

    Spans are considered in ``(start, -end, id)`` order; each goes to
    its parent's lane when it still fits there (so span trees render as
    one nested flame), otherwise to the first lane whose currently open
    interval contains it (or which has no open interval left).  The
    result: within a lane, intervals form a laminar family, so a
    ``B``-at-start / ``E``-at-end walk is a balanced bracket sequence.
    """
    lanes: list[list[Span]] = []
    stacks: list[list[float]] = []  # per-lane open interval end times
    lane_of: dict[int, int] = {}  # span_id -> lane index

    def fits(lane_idx: int, span: Span) -> bool:
        stack = stacks[lane_idx]
        while stack and (
            stack[-1] < span.start
            or (stack[-1] == span.start and span.end > stack[-1])
        ):
            stack.pop()
        return not stack or span.end <= stack[-1]

    for span in sorted(spans, key=lambda s: (s.start, -s.end, s.span_id)):
        parent_lane = (
            lane_of.get(span.parent_id) if span.parent_id is not None else None
        )
        candidates = [] if parent_lane is None else [parent_lane]
        candidates += [i for i in range(len(lanes)) if i != parent_lane]
        placed = next((i for i in candidates if fits(i, span)), None)
        if placed is None:
            lanes.append([])
            stacks.append([])
            placed = len(lanes) - 1
        lanes[placed].append(span)
        stacks[placed].append(span.end)
        lane_of[span.span_id] = placed
    return {idx: lane for idx, lane in enumerate(lanes)}


def _lane_events(lane: list[Span], pid: int, tid: int) -> list[dict]:
    """Balanced B/E walk over one lane's laminar span family."""
    events: list[dict] = []
    stack: list[Span] = []

    def emit_end(span: Span) -> None:
        events.append(
            {
                "ph": "E",
                "ts": span.end * _US,
                "pid": pid,
                "tid": tid,
                "name": span.name,
                "cat": span.category or "span",
                "args": {"span_id": span.span_id},
            }
        )

    for span in lane:  # already in (start, -end, id) order
        while stack and (
            stack[-1].end < span.start
            or (stack[-1].end == span.start and span.end > stack[-1].end)
        ):
            emit_end(stack.pop())
        args = _safe_tags(span.tags)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "ph": "B",
                "ts": span.start * _US,
                "pid": pid,
                "tid": tid,
                "name": span.name,
                "cat": span.category or "span",
                "args": args,
            }
        )
        stack.append(span)
    while stack:
        emit_end(stack.pop())
    return events


def to_chrome_trace(tracer: Tracer, include_metrics: bool = True) -> dict:
    """Render the trace as a Chrome-trace ("Trace Event Format") dict.

    Only finished spans are exported (open spans cannot be balanced);
    their count is reported under ``otherData``.
    """
    finished = [s for s in tracer.spans if s.end is not None]
    components = sorted(
        {s.component for s in finished}
        | {i.component for i in tracer.instants}
    )
    pid_of = {c: idx + 1 for idx, c in enumerate(components)}

    metadata = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": comp or "(root)"},
        }
        for comp, pid in sorted(pid_of.items(), key=lambda kv: kv[1])
    ]

    events: list[dict] = []
    for comp in components:
        comp_spans = [s for s in finished if s.component == comp]
        # tid 0 is the component's instant lane; span lanes start at 1.
        for lane_idx, lane in _assign_lanes(comp_spans).items():
            events.extend(_lane_events(lane, pid_of[comp], lane_idx + 1))

    # Point events inside spans and standalone instants.
    for span in finished:
        for t, name, attrs in span.events:
            events.append(
                {
                    "ph": "i",
                    "ts": t * _US,
                    "pid": pid_of[span.component],
                    "tid": 0,
                    "name": name,
                    "cat": span.category or "span",
                    "s": "t",
                    "args": dict(_safe_tags(attrs), span_id=span.span_id),
                }
            )
    for inst in tracer.instants:
        events.append(
            {
                "ph": "i",
                "ts": inst.t * _US,
                "pid": pid_of[inst.component],
                "tid": 0,
                "name": inst.name,
                "cat": inst.category or "instant",
                "s": "t",
                "args": _safe_tags(inst.tags),
            }
        )

    if include_metrics:
        for (comp, name), metric in tracer.metrics.items():
            data = metric.to_dict()
            pid = pid_of.get(comp, 0)
            for t, v in zip(data["times"], data["values"]):
                events.append(
                    {
                        "ph": "C",
                        "ts": t * _US,
                        "pid": pid,
                        "tid": 0,
                        "name": f"{comp}/{name}" if comp else name,
                        "args": {"value": v},
                    }
                )

    # Stable sort preserves each lane's bracket order at equal times.
    events.sort(key=lambda e: e["ts"])
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated-seconds",
            "spans": len(finished),
            "open_spans": len(tracer.spans) - len(finished),
            "instants": len(tracer.instants),
        },
    }


def write_chrome_trace(
    tracer: Tracer, path, include_metrics: bool = True
) -> None:
    """Write :func:`to_chrome_trace` output to ``path`` (JSON)."""
    with open(path, "w") as fh:
        json.dump(
            to_chrome_trace(tracer, include_metrics=include_metrics),
            fh,
            sort_keys=True,
            separators=(",", ":"),
        )


#: The one compact, key-sorted JSON encoder every JSONL record goes
#: through (``json.dumps`` would build a new encoder per call).
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_int_repr = int.__repr__


def _scalar(value) -> str:
    """``_dumps(value)``, with the exact ``str``/``int``/finite ``float``
    and ``None`` cases formatted by the functions ``json`` calls."""
    cls = type(value)
    if cls is str:
        return _encode_str(value)
    if cls is float and value - value == 0.0:  # finite
        return _float_repr(value)
    if cls is int:
        return _int_repr(value)
    if value is None:
        return "null"
    return _dumps(value)


def _tags_json(tags: dict) -> str:
    """``_dumps(_safe_tags(tags))`` without the intermediate dicts."""
    if not tags:
        return "{}"
    safe = {}
    for k, v in tags.items():  # a later key wins a str() collision
        safe[str(k)] = v
    parts = []
    for k, v in sorted(safe.items()):
        # _scalar(_json_safe(v)) inlined: this is the per-tag hot path.
        cls = type(v)
        if cls is str:
            v = _encode_str(v)
        elif cls is int:
            v = _int_repr(v)
        elif cls is float and v - v == 0.0:
            v = _float_repr(v)
        else:
            v = _dumps(_json_safe(v))
        parts.append(f"{_encode_str(k)}:{v}")
    return "{" + ",".join(parts) + "}"


def span_line(span) -> str:
    """One span's JSONL record, without the trailing newline.

    The one span encoder (:func:`to_jsonl` and the spill sink both call
    it): byte-identical to ``_dumps`` of the record dict
    ``{"type": "span", "id", "parent", "name", "cat", "comp", "t0",
    "t1", "tags", "events"}`` with tags and event attrs through
    :func:`_safe_tags`, written out in sorted key order.
    """
    events = (
        _dumps([[t, name, _safe_tags(attrs)] for t, name, attrs in span.events])
        if span.events
        else "[]"
    )
    return (
        f'{{"cat":{_scalar(span.category)},'
        f'"comp":{_scalar(span.component)},'
        f'"events":{events},'
        f'"id":{_scalar(span.span_id)},'
        f'"name":{_scalar(span.name)},'
        f'"parent":{_scalar(span.parent_id)},'
        f'"t0":{_scalar(span.start)},'
        f'"t1":{_scalar(span.end)},'
        f'"tags":{_tags_json(span.tags)},'
        '"type":"span"}'
    )


def instant_record(inst) -> dict:
    return {
        "type": "instant",
        "name": inst.name,
        "cat": inst.category,
        "comp": inst.component,
        "t": inst.t,
        "tags": _safe_tags(inst.tags),
    }


def metric_record(comp: str, metric) -> dict:
    record = {"type": "metric", "comp": comp}
    record.update(metric.to_dict())
    return record


def to_jsonl(tracer: Tracer, include_metrics: bool = True) -> str:
    """Flat, line-delimited event log of the whole trace.

    One JSON object per line: spans in creation order (ids are
    sequential, so this is also deterministic), then instants in record
    order, then registry metrics in sorted key order.  Identical seeds
    yield byte-identical output.
    """
    lines: list[str] = []
    for span in tracer.spans:
        lines.append(span_line(span))
    for inst in tracer.instants:
        lines.append(_dumps(instant_record(inst)))
    if include_metrics:
        for (comp, name), metric in tracer.metrics.items():
            lines.append(_dumps(metric_record(comp, metric)))
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(tracer: Tracer, path, include_metrics: bool = True) -> None:
    with open(path, "w") as fh:
        fh.write(to_jsonl(tracer, include_metrics=include_metrics))


# -- loading ---------------------------------------------------------------------


_RECORD_TYPES = ("span", "instant", "metric")


#: What reading the fields of a malformed record raises.
RECORD_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError)


def malformed(lineno: int, kind: str, exc: Exception) -> ValueError:
    return ValueError(f"line {lineno}: malformed {kind} record: {exc!r}")


def iter_records(lines: Iterable[str]) -> Iterator[tuple[int, str, dict]]:
    """``(line number, type, record)`` per non-blank line of a JSONL trace.

    The one record reader behind both trace loaders, the lossless
    :func:`tracer_from_jsonl` and the compact
    :meth:`repro.obs.stream.StubTrace.from_jsonl`: a line that is not
    a JSON object, or whose ``type`` is not span/instant/metric, raises
    :class:`ValueError` naming its line number (as the loaders do for a
    record whose fields they cannot read, via :func:`malformed`).
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno} is not valid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise ValueError(
                f"line {lineno}: a record is a JSON object, not "
                f"{type(record).__name__}"
            )
        kind = record.get("type")
        if kind not in _RECORD_TYPES:
            raise ValueError(f"line {lineno}: unknown record type {kind!r}")
        yield lineno, kind, record


def tracer_from_jsonl(text: str) -> Tracer:
    """Reconstruct a :class:`Tracer` from :func:`to_jsonl` output.

    The round trip is loss-free for analysis purposes:
    ``to_jsonl(tracer_from_jsonl(to_jsonl(t))) == to_jsonl(t)``.  The
    returned tracer's clock reads the latest recorded timestamp, so
    post-hoc recording (e.g. alert spans) stays inside simulated time.
    """
    latest = [0.0]
    tracer = Tracer(clock=lambda: latest[0])
    spans = []
    for lineno, kind, record in iter_records(text.splitlines()):
        try:
            if kind == "span":
                span = Span(
                    tracer,
                    span_id=operator.index(record["id"]),
                    name=record["name"],
                    category=record.get("cat", ""),
                    component=record.get("comp", ""),
                    tags=record.get("tags"),
                    start=record["t0"],
                    parent_id=record.get("parent"),
                )
                if record.get("t1") is not None:
                    span.end = float(record["t1"])
                    latest[0] = max(latest[0], span.end)
                latest[0] = max(latest[0], span.start)
                events = [
                    (float(t), name, dict(attrs))
                    for t, name, attrs in record.get("events", ())
                ]
                if events:
                    span.events = events
                    latest[0] = max(latest[0], max(e[0] for e in events))
                spans.append(span)
            elif kind == "instant":
                tracer.instant(
                    record["name"],
                    category=record.get("cat", ""),
                    component=record.get("comp", ""),
                    tags=record.get("tags"),
                    t=record["t"],
                )
                latest[0] = max(latest[0], record["t"])
            else:
                tracer.metrics.register(
                    metric_from_record(record), component=record.get("comp", "")
                )
        except RECORD_ERRORS as exc:
            raise malformed(lineno, kind, exc) from exc

    # Spans are exported in id order; adopt them in that order so ids,
    # parents and open/closed state survive the round trip.
    for span in sorted(spans, key=lambda s: s.span_id):
        tracer._adopt(span)
    return tracer


def metric_from_record(record: dict):
    """Rebuild a metric object from a :func:`metric_record` dict."""
    from repro.obs.metrics import Counter, Gauge, UtilizationTracker

    kind = record.get("kind")
    times = [float(t) for t in record.get("times", [0.0])]
    values = [float(v) for v in record.get("values", [0.0])]
    if kind == "utilization":
        metric = UtilizationTracker(
            capacity=record["capacity"], name=record["name"], t0=times[0]
        )
        metric.busy.times = times
        metric.busy.values = values
    elif kind in ("gauge", "counter"):
        cls = Counter if kind == "counter" else Gauge
        metric = cls(name=record["name"], t0=times[0], initial=values[0])
        metric.times = times
        metric.values = values
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    return metric


def read_jsonl(path) -> Tracer:
    """Load a JSONL trace file written by :func:`write_jsonl`."""
    with open(path) as fh:
        return tracer_from_jsonl(fh.read())
