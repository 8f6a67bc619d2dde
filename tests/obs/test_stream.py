"""The constant-memory span pipeline: sinks, spill segments, exact replay.

Equivalence contract:

- **byte-identical**: a spill-sink run concatenated and reloaded
  produces exactly the bytes :func:`repro.obs.export.to_jsonl` writes
  for the same-seed in-memory run (segments are the trace);
- **exact**: analytics over the compact reader's trace equal the batch
  numbers, because they are the batch code on the same values.
"""

import functools
import json
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import InMemorySink, Tracer, enable_tracing
from repro.obs.alerts import Rule, evaluate_rules
from repro.obs.export import to_jsonl, tracer_from_jsonl
from repro.obs.stream import (
    JsonlSpillSink,
    StubTrace,
    TeeSink,
    scan_spill,
    tracer_from_segments,
)
from repro.simkernel import Environment

from tests.obs.minirun import mini_entk_run

N = 60  # tasks; small enough that the whole module stays fast


@pytest.fixture(scope="module")
def batch_run():
    """Reference in-memory run: (tracer, its to_jsonl bytes)."""
    _, tracer = mini_entk_run(n_tasks=N, nodes=N, seed=5)
    return tracer, to_jsonl(tracer)


@pytest.fixture(scope="module")
def spill_run(tmp_path_factory):
    """Same-seed run recorded through a rotating spill sink."""
    spill_dir = tmp_path_factory.mktemp("spill")
    sink = JsonlSpillSink(spill_dir, segment_records=50)
    _, tracer = mini_entk_run(n_tasks=N, nodes=N, seed=5, sink=sink)
    tracer.close()
    return spill_dir, sink


class TestJsonlSpillSink:
    def test_round_trip_is_byte_identical(self, batch_run, spill_run):
        _, expected = batch_run
        spill_dir, _ = spill_run
        reloaded = tracer_from_segments(spill_dir)
        assert to_jsonl(reloaded) == expected

    def test_segments_rotate(self, spill_run):
        _, sink = spill_run
        assert len(sink.segments()) == -(-sink.total_records // 50)
        assert sink.total_records > 50  # actually rotated

    def test_retention_caps_disk(self, tmp_path):
        sink = JsonlSpillSink(tmp_path, segment_records=10, retain_segments=2)
        env = Environment()
        tracer = enable_tracing(env, sink=sink)
        for i in range(55):
            tracer.span(f"s{i}", category="x", t=float(i)).finish(t=i + 0.5)
        tracer.close()
        assert len(sink.segments()) == 2
        # The retained window holds the *newest* records.
        last = json.loads(sink.read_text().splitlines()[-1])
        assert last["type"] == "metric" or last["id"] == 54

    def test_open_spans_drained_on_close(self, tmp_path):
        env = Environment()
        tracer = enable_tracing(env, sink=JsonlSpillSink(tmp_path))
        tracer.span("done", category="x", t=0.0).finish(t=1.0)
        tracer.span("open", category="x", t=0.5)  # never finished
        tracer.close()
        reloaded = tracer_from_segments(tmp_path)
        open_spans = reloaded.open_spans()
        assert [s.name for s in open_spans] == ["open"]
        assert open_spans[0].end is None

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSpillSink(tmp_path)
        env = Environment()
        tracer = enable_tracing(env, sink=sink)
        tracer.close()
        with pytest.raises(RuntimeError):
            tracer.span("late", t=0.0).finish(t=1.0)

    def test_spans_property_raises_cleanly(self, tmp_path):
        env = Environment()
        tracer = enable_tracing(env, sink=JsonlSpillSink(tmp_path))
        with pytest.raises(RuntimeError, match="does not retain"):
            tracer.spans
        tracer.close()


def _analysed_fields(span) -> tuple:
    return (span.span_id, span.parent_id, span.name, span.category,
            span.component, span.start, span.end, span.tags.get("state"))


class TestStubStore:
    def test_from_jsonl_keeps_every_analysed_field(self, batch_run):
        tracer, text = batch_run
        stub = StubTrace.from_jsonl(text.splitlines())
        assert isinstance(stub, Tracer) and not stub.enabled
        assert [_analysed_fields(s) for s in stub.spans] == [
            _analysed_fields(s) for s in tracer.spans
        ]
        assert any(s.tags for s in stub.spans)  # the state tag survives
        assert all(set(s.tags) <= {"state"} and not s.events for s in stub.spans)
        assert stub.instants == [] and tracer.instants

    def test_drained_open_spans_come_back_open(self, tmp_path):
        env = Environment()
        sink = JsonlSpillSink(tmp_path)
        tracer = enable_tracing(env, sink=sink)
        tracer.span("done", category="x", t=0.0).finish(t=1.0)
        tracer.span("open", category="x", t=0.5)  # drained at close
        tracer.close()
        stub = StubTrace.from_jsonl(sink.read_text().splitlines())
        assert [(s.name, s.end) for s in stub.open_spans()] == [("open", None)]
        assert [s.name for s in stub.spans] == ["done", "open"]

    def test_alert_recording_adds_no_span(self, batch_run):
        _, text = batch_run
        stub = StubTrace.from_jsonl(text.splitlines())
        n = len(stub.spans)
        report = evaluate_rules(
            [Rule("count(entk.exec) >= 1000000", name="never")],
            trace=stub,
            record=True,
        )
        assert report.alerts  # there was an alert to record
        assert len(stub.spans) == n

    def test_query_api_works_over_stubs(self, batch_run):
        tracer, text = batch_run
        stub = StubTrace.from_jsonl(text.splitlines())
        assert stub.query().count(category="entk.exec") == tracer.query().count(
            category="entk.exec"
        )
        batch_peak = max(tracer.query().concurrency(category="entk.exec").values)
        stream_peak = max(stub.query().concurrency(category="entk.exec").values)
        assert batch_peak == stream_peak


SPAN = {"type": "span", "id": 1, "name": "s", "cat": "c", "comp": "x",
        "t0": 0.0, "t1": 1.0, "tags": {"state": "DONE"}}
INSTANT = {"type": "instant", "name": "i", "cat": "c", "comp": "x", "t": 0.5}
METRIC = {"type": "metric", "kind": "gauge", "name": "g", "comp": "x",
          "times": [0.0], "values": [1.0]}


def edited(record, drop=None, **fields):
    """``record`` without field ``drop`` and with ``fields`` set."""
    out = {k: v for k, v in record.items() if k != drop}
    out.update(fields)
    return out


class TestRecordReader:
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("{not json", "line 3 is not valid JSON"),
            ('{"type": "bogus"}', "line 3: unknown record type 'bogus'"),
            ("5", "line 3: a record is a JSON object, not int"),
            ('["span"]', "line 3: a record is a JSON object, not list"),
        ],
    )
    def test_both_loaders_raise_the_same_error(self, bad, message):
        lines = [json.dumps({"type": "instant", "name": "i", "t": 0.0}), "", bad]
        errors = []
        for load in (
            lambda: tracer_from_jsonl("\n".join(lines)),
            lambda: StubTrace.from_jsonl(lines),
        ):
            with pytest.raises(ValueError, match=message) as info:
                load()
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize(
        "load",
        [lambda lines: tracer_from_jsonl("\n".join(lines)), StubTrace.from_jsonl],
        ids=["tracer", "stub"],
    )
    @pytest.mark.parametrize(
        "bad",
        [
            edited(SPAN, drop="name"),
            edited(SPAN, drop="t0"),
            edited(SPAN, drop="id"),
            edited(SPAN, id="1"),
            edited(SPAN, tags=[1]),
            edited(METRIC, drop="name"),
            edited(METRIC, times=[]),
        ],
        ids=[
            "span-name", "span-t0", "span-id", "span-id-str", "span-tags",
            "metric-name", "metric-times",
        ],
    )
    def test_malformed_record_names_its_line(self, load, bad):
        lines = [json.dumps(r) for r in (INSTANT, SPAN, bad)]
        with pytest.raises(ValueError, match=f"^line 3: malformed {bad['type']} "):
            load(lines)

    def test_instant_without_time(self):
        lines = [json.dumps(r) for r in (SPAN, edited(INSTANT, drop="t"))]
        with pytest.raises(ValueError, match="^line 2: malformed instant "):
            tracer_from_jsonl("\n".join(lines))
        # The compact reader skips instants, so it has nothing to reject.
        assert len(StubTrace.from_jsonl(lines).spans) == 1


@functools.lru_cache(maxsize=None)
def _spill_segments() -> tuple:
    """``(name, bytes)`` of each segment of a small finished spill."""
    with tempfile.TemporaryDirectory() as d:
        sink = JsonlSpillSink(d, segment_records=15)
        _, tracer = mini_entk_run(n_tasks=12, nodes=12, seed=3, sink=sink)
        tracer.close()
        segments = []
        for path in sink.segments():
            with open(path, "rb") as fh:
                segments.append((os.path.basename(path), fh.read()))
        return tuple(segments)


_SPLICES = [b"", b"\xff", b"\xc3", b"\n", b'"', b"{", b"}", b"[", b"]",
            b",", b":", b"0", b"-", b"e", b"null", b"true", b"\x00"]


@st.composite
def mutated_spills(draw):
    """The segments with 1–3 byte edits in one of them, the last one
    sometimes left as the active ``.part`` a crash leaves behind."""
    segments = [list(seg) for seg in _spill_segments()]
    target = draw(st.integers(0, len(segments) - 1))
    data = segments[target][1]
    for _ in range(draw(st.integers(1, 3))):
        if not data:
            break
        i = draw(st.integers(0, len(data) - 1))
        splice = draw(st.sampled_from(_SPLICES))
        op = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        if op == "delete":
            data = data[:i] + data[i + 1:]
        elif op == "insert":
            data = data[:i] + splice + data[i:]
        elif op == "replace":
            data = data[:i] + splice + data[i + 1:]
        else:
            data = data[:i]
    segments[target][1] = data
    if draw(st.booleans()):
        segments[-1][0] += ".part"
    return segments, target


class TestSpillReaderGuard:
    """A damaged spill directory yields a ``ValueError`` (a decode,
    record or :class:`SpillCorruptionError`) from every reader, never
    another exception and never a hang."""

    def test_segments_cover_every_record_type(self):
        text = b"".join(data for _, data in _spill_segments()).decode()
        kinds = {json.loads(line)["type"] for line in text.splitlines()}
        assert kinds == {"span", "instant", "metric"}
        assert len(_spill_segments()) > 3

    @given(mutated_spills())
    @settings(max_examples=200, deadline=2000)
    def test_mutated_segments_raise_only_value_errors(self, spill):
        segments, target = spill
        with tempfile.TemporaryDirectory() as d:
            for name, data in segments:
                with open(os.path.join(d, name), "wb") as fh:
                    fh.write(data)
            readers = (
                lambda: tracer_from_segments(d, on_truncated=lambda info: None),
                lambda: StubTrace.from_jsonl_path(os.path.join(d, segments[target][0])),
                lambda: scan_spill(d),
            )
            for read in readers:
                try:
                    read()
                except ValueError:
                    pass


class TestOpenSpansAtClose:
    """Rules over a trace with spans still open at close follow the
    batch conventions (makespan over finished spans, FAILED counted on
    every span), and the spill read back judges them the same."""

    def test_matches_batch(self, tmp_path):
        rules = [Rule("makespan <= 1"), Rule("failed_tasks <= 0")]
        spill = JsonlSpillSink(tmp_path)
        tracer = Tracer(sink=TeeSink(InMemorySink(), spill))
        tracer.span("pilot", t=0.0)
        a = tracer.span("a", t=5.0)
        tracer.span("b", t=6.0).tag(state="FAILED")
        a.finish(t=10.0)
        tracer.close()
        batch = evaluate_rules(rules, tracer, record=False)
        assert [o.value for o in batch.outcomes] == [5.0, 1.0]
        assert batch.window == (0.0, 10.0)
        stub = StubTrace.from_jsonl(spill.read_text().splitlines())
        assert evaluate_rules(rules, stub).to_dict() == batch.to_dict()


class TestTeeAndMemory:
    def test_tee_fans_out_and_memory_stays_bounded(self, tmp_path):
        from benchmarks.perf.obs_bench import span_storm

        n_spans = 4000
        rotating = JsonlSpillSink(
            tmp_path / "a", segment_records=500, retain_segments=2
        )
        single = JsonlSpillSink(tmp_path / "b", segment_records=n_spans)
        env = Environment()
        tracer = enable_tracing(env, sink=TeeSink(rotating, single))
        tracemalloc.start()
        span_storm(tracer, n_spans)
        tracer.close()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        expected = n_spans + len(tracer.metrics)  # the storm has no instants
        assert rotating.total_records == single.total_records == expected
        assert len(rotating.segments()) == 2
        # An in-memory sink at this span count allocates ~2 MB
        # (~500 bytes/span); the spilling tee stays far under it.
        assert peak < 1_000_000


class TestBenchHarness:
    def test_obs_bench_document_shape(self, tmp_path):
        from benchmarks.perf.obs_bench import BENCH_OBS_SCHEMA, run_bench

        doc = run_bench(n_spans=1500, workdir=tmp_path)
        assert doc["schema"] == BENCH_OBS_SCHEMA
        assert set(doc["modes"]) == {"null", "memory", "spill"}
        for metrics in doc["modes"].values():
            assert metrics["spans"] == 1500
            assert metrics["spans_per_s"] > 0
            assert metrics["peak_mb"] >= 0.0

    def test_memory_smoke_gate(self, tmp_path):
        from benchmarks.perf.obs_memory_smoke import run_smoke

        doc = run_smoke(n_spans=3000, gate_mb=16.0, workdir=tmp_path)
        assert doc["ok"] is True
        assert doc["records"] == doc["expected_records"] >= 3000
        assert doc["peak_mb"] < 16.0
        # Throughput under tracemalloc says nothing about the sink.
        assert "spans_per_s" not in doc and "wall_s" not in doc

    def test_memory_smoke_fails_a_sink_that_drops_spans(
        self, tmp_path, monkeypatch
    ):
        from benchmarks.perf.obs_memory_smoke import run_smoke

        monkeypatch.setattr(JsonlSpillSink, "on_finish", lambda self, span: None)
        doc = run_smoke(n_spans=300, gate_mb=16.0, workdir=tmp_path)
        assert doc["records"] < doc["expected_records"]
        assert doc["ok"] is False
