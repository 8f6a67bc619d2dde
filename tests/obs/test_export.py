"""Unit tests for the Chrome-trace and JSONL exporters."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, to_chrome_trace, to_jsonl
from repro.obs.export import (
    span_line,
    tracer_from_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import Span

from tests.obs.minirun import assert_chrome_trace_valid


def overlapping_trace():
    """Spans that cannot share one lane: [0,10), [5,15), nested [6,9)."""
    tracer = Tracer()
    a = tracer.start("a", category="x", component="comp", t=0.0)
    b = tracer.start("b", category="x", component="comp", t=5.0)
    c = tracer.start("c", category="x", component="comp", parent=b, t=6.0)
    c.finish(t=9.0)
    a.finish(t=10.0)
    b.finish(t=15.0)
    return tracer


class TestChromeTrace:
    def test_overlapping_spans_fan_out_to_balanced_lanes(self):
        doc = to_chrome_trace(overlapping_trace())
        assert_chrome_trace_valid(doc)
        be = [e for e in doc["traceEvents"] if e["ph"] in "BE"]
        assert len(be) == 6
        # b and c share a lane (nested); a is alone on another.
        lanes = {e["args"]["span_id"]: e["tid"] for e in be if e["ph"] == "B"}
        assert lanes[1] == lanes[2]
        assert lanes[0] != lanes[1]

    def test_process_metadata_names_components(self):
        tracer = Tracer()
        tracer.start("s", component="kube", t=0.0).finish(t=1.0)
        tracer.start("s", component="batch", t=0.0).finish(t=1.0)
        doc = to_chrome_trace(tracer)
        meta = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert sorted(meta.values()) == ["batch", "kube"]

    def test_timestamps_in_microseconds(self):
        tracer = Tracer()
        tracer.start("s", component="c", t=1.5).finish(t=2.0)
        doc = to_chrome_trace(tracer)
        ts = sorted(e["ts"] for e in doc["traceEvents"] if e["ph"] in "BE")
        assert ts == [1_500_000.0, 2_000_000.0]

    def test_open_spans_excluded_but_counted(self):
        tracer = Tracer()
        tracer.start("done", component="c", t=0.0).finish(t=1.0)
        tracer.start("open", component="c", t=0.5)
        doc = to_chrome_trace(tracer)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "B"}
        assert names == {"done"}
        assert doc["otherData"]["spans"] == 1
        assert doc["otherData"]["open_spans"] == 1

    def test_span_events_and_instants_become_instant_events(self):
        tracer = Tracer()
        span = tracer.start("s", category="x", component="c", t=0.0)
        span.event("checkpoint", t=0.5, step=3)
        span.finish(t=1.0)
        tracer.instant("decision", category="y", component="c", t=0.7,
                       tags={"node": "n1"})
        doc = to_chrome_trace(tracer)
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in inst} == {"checkpoint", "decision"}
        assert all(e["s"] == "t" and e["tid"] == 0 for e in inst)
        by_name = {e["name"]: e for e in inst}
        assert by_name["checkpoint"]["args"] == {"step": 3, "span_id": 0}
        assert by_name["decision"]["args"] == {"node": "n1"}

    def test_metrics_become_counter_events(self):
        tracer = Tracer()
        tracer.start("s", component="c", t=0.0).finish(t=4.0)
        gauge = tracer.metrics.gauge("depth", component="c")
        gauge.record(2.0, 7.0)
        doc = to_chrome_trace(tracer, include_metrics=True)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {"c/depth"}
        assert [e["args"]["value"] for e in counters] == [0.0, 7.0]
        without = to_chrome_trace(tracer, include_metrics=False)
        assert not [e for e in without["traceEvents"] if e["ph"] == "C"]

    def test_tags_survive_with_numpy_values(self):
        tracer = Tracer()
        span = tracer.start(
            "s", component="c", t=0.0,
            tags={"cores": np.int64(8), "frac": np.float64(0.5),
                  "obj": object()},
        )
        span.finish(t=1.0)
        doc = to_chrome_trace(tracer)
        args = next(
            e for e in doc["traceEvents"] if e["ph"] == "B"
        )["args"]
        assert args["cores"] == 8 and isinstance(args["cores"], int)
        assert args["frac"] == 0.5
        assert isinstance(args["obj"], str)
        json.dumps(doc)  # fully serializable

    def test_zero_duration_span_at_parent_boundary(self):
        tracer = Tracer()
        parent = tracer.start("p", component="c", t=0.0)
        tracer.start("z", component="c", parent=parent, t=5.0).finish(t=5.0)
        parent.finish(t=5.0)
        assert_chrome_trace_valid(to_chrome_trace(tracer))

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(overlapping_trace(), path)
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["spans"] == 3
        assert_chrome_trace_valid(loaded)


class TestJsonl:
    def test_one_valid_json_object_per_line(self):
        tracer = overlapping_trace()
        tracer.instant("i", component="comp", t=1.0)
        tracer.metrics.counter("done", component="comp").inc(2.0)
        text = to_jsonl(tracer)
        lines = text.splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records] == [
            "span", "span", "span", "instant", "metric",
        ]
        assert text.endswith("\n")

    def test_span_record_fields(self):
        tracer = Tracer()
        parent = tracer.start("p", category="x", component="c", t=0.0)
        child = tracer.start("k", category="x", component="c",
                             parent=parent, tags={"n": 1}, t=1.0)
        child.event("e", t=1.5, detail="d")
        child.finish(t=2.0)
        parent.finish(t=3.0)
        records = [json.loads(x) for x in to_jsonl(tracer).splitlines()]
        assert records[1] == {
            "type": "span", "id": 1, "parent": 0, "name": "k",
            "cat": "x", "comp": "c", "t0": 1.0, "t1": 2.0,
            "tags": {"n": 1}, "events": [[1.5, "e", {"detail": "d"}]],
        }
        assert records[0]["parent"] is None

    def test_open_spans_serialized_with_null_end(self):
        tracer = Tracer()
        tracer.start("open", t=1.0)
        [record] = [json.loads(x) for x in to_jsonl(tracer).splitlines()]
        assert record["t1"] is None

    def test_include_metrics_toggle(self):
        tracer = Tracer()
        tracer.metrics.gauge("g").record(1.0, 2.0)
        assert to_jsonl(tracer, include_metrics=False) == ""
        [record] = [
            json.loads(x) for x in to_jsonl(tracer).splitlines()
        ]
        assert record == {
            "type": "metric", "comp": "", "kind": "gauge", "name": "g",
            "times": [0.0, 1.0], "values": [0.0, 2.0],
        }

    def test_write_roundtrip(self, tmp_path):
        tracer = overlapping_trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        assert path.read_text() == to_jsonl(tracer)


class TestJsonlLoader:
    """``tracer_from_jsonl`` must invert ``to_jsonl`` exactly."""

    def rich_trace(self):
        tracer = overlapping_trace()
        open_span = tracer.start("still-open", category="x",
                                 component="comp", t=12.0)
        open_span.event("mark", t=12.5, detail="d")
        tracer.instant("decision", category="y", component="comp", t=0.7,
                       tags={"node": "n1"})
        tracer.metrics.counter("done", component="comp").inc(2.0)
        gauge = tracer.metrics.gauge("depth", component="comp")
        gauge.record(1.0, 3.0)
        util = tracer.metrics.utilization("cores", 8, component="comp")
        util.acquire(2.0, 4)
        util.release(5.0, 4)
        return tracer

    def test_reserialization_is_byte_identical(self):
        tracer = self.rich_trace()
        text = to_jsonl(tracer)
        assert to_jsonl(tracer_from_jsonl(text)) == text

    def test_spans_rebuilt_faithfully(self):
        reloaded = tracer_from_jsonl(to_jsonl(self.rich_trace()))
        spans = {s.span_id: s for s in reloaded.spans}
        assert spans[2].parent_id == 1
        assert (spans[2].start, spans[2].end) == (6.0, 9.0)
        assert spans[3].end is None  # open span survives as open
        assert spans[3].events == [(12.5, "mark", {"detail": "d"})]
        # New spans continue the id sequence, not restart it.
        assert reloaded.start("new", t=0.0).span_id == 4

    def test_metrics_rebuilt_with_kinds(self):
        reloaded = tracer_from_jsonl(to_jsonl(self.rich_trace()))
        assert reloaded.metrics.get("done", component="comp").kind == "counter"
        gauge = reloaded.metrics.get("depth", component="comp")
        assert gauge.kind == "gauge"
        assert gauge.series() == ((0.0, 1.0), (0.0, 3.0))
        util = reloaded.metrics.get("cores", component="comp")
        assert util.kind == "utilization"
        assert util.busy.value_at(3.0) == 4.0

    def test_clock_resumes_at_latest_timestamp(self):
        reloaded = tracer_from_jsonl(to_jsonl(self.rich_trace()))
        assert reloaded.now() == 15.0  # latest span end in the trace

    def test_read_jsonl_file(self, tmp_path):
        from repro.obs.export import read_jsonl

        tracer = self.rich_trace()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer, path)
        assert to_jsonl(read_jsonl(path)) == to_jsonl(tracer)

    def test_empty_text_gives_empty_tracer(self):
        reloaded = tracer_from_jsonl("")
        assert reloaded.spans == [] and len(reloaded.metrics) == 0


class Label(str):
    """A str subclass whose repr and str lie; JSON writes its text."""

    def __repr__(self):
        return "Label!"

    def __str__(self):
        return "label!"


class Seconds(float):
    """A float subclass whose repr lies; JSON writes the float."""

    def __repr__(self):
        return "Seconds!"


def reference_tags(tags):
    """Tags as the exporters coerce them: ``str`` keys, a later key
    winning a collision; JSON scalars kept, numpy scalars unwrapped,
    anything else written as its repr."""
    out = {}
    for key, value in tags.items():
        if isinstance(value, np.generic):
            value = value.item()
        elif not (value is None or isinstance(value, (bool, int, float, str))):
            value = repr(value)
        out[str(key)] = value
    return out


def reference_line(span):
    """``json.dumps`` of the span record dict, built field by field."""
    record = {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "cat": span.category,
        "comp": span.component,
        "t0": span.start,
        "t1": span.end,
        "tags": reference_tags(span.tags),
        "events": [[t, name, reference_tags(attrs)] for t, name, attrs in span.events],
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_texts = st.text(
    st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\n\té\u2603'),
    max_size=6,
)
_times = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | _times
    | _texts
    | _texts.map(Label)
    | st.floats(allow_nan=False).map(Seconds)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.floats(width=32).map(np.float32)
)
_values = st.recursive(
    _scalars,
    lambda inner: st.tuples(inner, inner)
    | st.lists(inner, max_size=2)
    | st.dictionaries(_texts, inner, max_size=2),
    max_leaves=4,
)
# Small key pools so that int 1 and str "1" collide after str().
_keys = st.integers(-1, 2) | st.sampled_from(["-1", "0", "1", "a", 'q"', "é"]) | _texts
_tags = st.lists(st.tuples(_keys, _values), max_size=5).map(dict)


@st.composite
def spans(draw):
    name = draw(_texts | st.integers() | st.none())
    span = Span(
        Tracer(),
        span_id=draw(st.integers(0, 2**70)),
        name=name,
        category=draw(_texts),
        component=draw(_texts),
        tags=draw(_tags),
        start=draw(_times),
        parent_id=draw(st.none() | st.integers(0, 2**40)),
    )
    span.end = draw(st.none() | _times)
    span.events = draw(st.lists(st.tuples(_times, _texts, _tags), max_size=2))
    return span


class TestSpanLine:
    """``span_line`` is byte-identical to ``json.dumps`` of the record."""

    @given(spans())
    @settings(max_examples=400, deadline=1000)
    def test_matches_json_dumps_of_the_record(self, span):
        assert span_line(span) == reference_line(span)

    def test_key_collision_keeps_the_later_value(self):
        span = Span(Tracer(), 0, "s", "c", "x", {1: "int", "1": "str"}, 0.0)
        assert json.loads(span_line(span))["tags"] == {"1": "str"}
        span.tags = {"1": "str", 1: "int"}
        assert json.loads(span_line(span))["tags"] == {"1": "int"}

    def test_events_list_is_made_on_first_event(self):
        tracer = Tracer()
        quiet = tracer.start("s", category="c", component="x", t=1.0).finish(t=2.0)
        assert quiet.events == ()
        assert span_line(quiet) == (
            '{"cat":"c","comp":"x","events":[],"id":0,"name":"s",'
            '"parent":null,"t0":1.0,"t1":2.0,"tags":{},"type":"span"}'
        )
        fresh = tracer.start("e", t=0.0)
        fresh.event("mark", t=0.5, detail="d")
        fresh.event("again", t=0.75)
        assert fresh.events == [(0.5, "mark", {"detail": "d"}), (0.75, "again", {})]
        assert quiet.events == ()  # the first event() gave only `fresh` a list
