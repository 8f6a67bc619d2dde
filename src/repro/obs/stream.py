"""Constant-memory observability: spill to disk, then report exactly.

The in-memory :class:`~repro.obs.tracer.InMemorySink` retains every
span for the life of the run, which is right for the paper-scale
scenarios.  This module is the constant-memory path of the
:class:`~repro.obs.tracer.SpanSink` protocol, and it has one guarantee:
exact verdicts.

- :class:`JsonlSpillSink` spills every finished span to segmented
  JSONL files (rotation + retention), byte-compatible with
  :func:`repro.obs.export.to_jsonl` records, so a constant-memory run
  still leaves a trace that :func:`repro.obs.export.tracer_from_jsonl`
  reloads losslessly (:func:`tracer_from_segments` reads a spill
  directory).
- :class:`StubTrace` reads a JSONL trace or spill back line by line
  into a :class:`~repro.obs.tracer.Tracer` whose spans keep only what
  the report analyses read (tags reduced to the terminal ``state``; no
  events, no instants), and the unchanged batch analytics run over it.
  Verdicts are **byte-identical** to a lossless reload (it *is* the
  batch code on the same values).

A run is reported on after it ends, from a trace that fits in memory
in this compact form; a run whose compact trace does not fit can still
be spilled, but not reported on.  :class:`TeeSink` fans the stream out
to several sinks in one pass.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import re
import sys
import warnings
from typing import Iterable, Optional

from repro.obs.export import (
    RECORD_ERRORS,
    _dumps,
    instant_record,
    iter_records,
    malformed,
    metric_from_record,
    metric_record,
    span_line,
    tracer_from_jsonl,
)
from repro.obs.tracer import Span, SpanSink, Tracer

__all__ = [
    "StubTrace",
    "JsonlSpillSink",
    "SpillCorruptionError",
    "SpillResumeMismatch",
    "TeeSink",
    "scan_spill",
    "tracer_from_segments",
]


# -- compact trace reader --------------------------------------------------------


class StubTrace(Tracer):
    """A :class:`~repro.obs.tracer.Tracer` read back compactly from JSONL.

    Each span record becomes a :class:`~repro.obs.tracer.Span` holding
    what :mod:`repro.obs.analyze`, :mod:`repro.obs.alerts` and
    :mod:`repro.report` read: identity, hierarchy, classification
    (interned strings), interval, and the terminal ``state`` tag
    (``failed_tasks`` counts it).  Other tags, point events and
    instants are dropped — that is where the memory goes in a real
    trace.  Metric records land in the registry.  The unchanged batch
    analytics run over it, so verdicts are byte-identical to a
    lossless reload (:func:`~repro.obs.export.tracer_from_jsonl`);
    ``enabled = False`` keeps post-hoc passes (alert recording) from
    writing spans into a trace read from disk.
    """

    enabled = False

    @classmethod
    def from_jsonl(cls, lines: Iterable[str]) -> "StubTrace":
        """Stream-parse JSONL lines (an open file streams without
        materializing the text) into a compact trace."""
        trace = cls()
        spans = []
        for lineno, kind, record in iter_records(lines):
            try:
                if kind == "span":
                    state = (record.get("tags") or {}).get("state")
                    # Positional: the reader's hot path, once per span.
                    span = Span(
                        trace,
                        operator.index(record["id"]),
                        sys.intern(record["name"]),
                        sys.intern(record.get("cat", "")),
                        sys.intern(record.get("comp", "")),
                        None if state is None else {"state": state},
                        record["t0"],
                        record.get("parent"),
                    )
                    end = record.get("t1")
                    if end is not None:
                        span.end = float(end)
                    spans.append(span)
                elif kind == "metric":
                    trace.metrics.register(
                        metric_from_record(record),
                        component=record.get("comp", ""),
                    )
            except RECORD_ERRORS as exc:
                raise malformed(lineno, kind, exc) from exc
        spans.sort(key=lambda s: s.span_id)
        for span in spans:
            trace._adopt(span)
        return trace

    @classmethod
    def from_jsonl_path(cls, path) -> "StubTrace":
        with open(path) as fh:
            return cls.from_jsonl(fh)


# -- spill-to-disk sink ----------------------------------------------------------


class SpillCorruptionError(ValueError):
    """A spill directory is damaged beyond crash semantics.

    A SIGKILL can only tear the *tail* of the *active* segment (writes
    are sequential and finalized segments were fsynced); a hole or torn
    tail anywhere else means something other than a crash mangled the
    directory, and resuming over it would silently corrupt the trace.
    """


class SpillResumeMismatch(RuntimeError):
    """Resumed re-execution diverged from the bytes already on disk.

    Raised when the suppress-and-verify prefix hash of a resumed run
    does not match the surviving spill segments — the scenario is not
    deterministic (or the directory belongs to a different run), so the
    resume must not be trusted.
    """


_SEGMENT_RE = re.compile(r"^segment-(\d{5})\.jsonl(\.part)?$")


def _scan_segment_names(directory) -> list[tuple[int, str]]:
    """Sorted ``(index, filename)`` for every segment, oldest first."""
    out = []
    for name in os.listdir(str(directory)):
        m = _SEGMENT_RE.match(name)
        if m:
            out.append((int(m.group(1)), name))
    out.sort()
    return out


def scan_spill(directory) -> dict:
    """Inspect a spill directory without modifying it.

    Returns ``{"segments": [(idx, path, n_lines)], "records": total
    complete lines, "sha256": hash over the complete-line bytes in
    segment order, "torn_tail_bytes": bytes after the last newline of
    the final segment (0 when clean)}``.  A torn tail anywhere but the
    final segment raises :class:`SpillCorruptionError`, as does a gap
    in the segment index sequence.
    """
    directory = str(directory)
    names = _scan_segment_names(directory)
    for pos, (idx, _name) in enumerate(names):
        if idx != names[0][0] + pos:
            raise SpillCorruptionError(
                f"segment index gap in {directory!r}: {[n for _, n in names]}"
            )
    hasher = hashlib.sha256()
    segments = []
    records = 0
    torn_tail = 0
    for pos, (idx, name) in enumerate(names):
        path = os.path.join(directory, name)
        with open(path, "rb") as fh:
            data = fh.read()
        cut = data.rfind(b"\n") + 1  # 0 when no newline at all
        if cut != len(data):
            if pos != len(names) - 1:
                raise SpillCorruptionError(
                    f"torn tail in non-final segment {name!r}"
                )
            torn_tail = len(data) - cut
            data = data[:cut]
        n_lines = data.count(b"\n")
        hasher.update(data)
        records += n_lines
        segments.append((idx, path, n_lines))
    return {
        "segments": segments,
        "records": records,
        "sha256": hasher.hexdigest(),
        "torn_tail_bytes": torn_tail,
    }


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JsonlSpillSink(SpanSink):
    """Spill finished spans to segmented JSONL files, crash-safely.

    Records are byte-identical to :func:`repro.obs.export.to_jsonl`
    lines (spans through the same :func:`~repro.obs.export.span_line`,
    other records through the same compact JSON encoder), written in
    event order: a span's line lands when it *finishes*, instants when
    they occur.  ``close()`` drains still-open spans (``"t1": null``)
    and appends the metric registry, so concatenating the segments and
    reloading through :func:`~repro.obs.export.tracer_from_jsonl`
    reproduces the trace exactly (the loader orders spans by id).

    Segments rotate every ``segment_records`` lines.  The **active**
    segment is written as ``segment-00000.jsonl.part``; on rotation (or
    ``close()``) it is flushed, fsynced, and atomically renamed to
    ``segment-00000.jsonl`` — so a ``.jsonl`` name is a *durability
    promise*: its bytes survived a crash.  A SIGKILL can lose only the
    buffered tail of the ``.part`` segment, which readers repair (the
    torn final line is dropped and reported, never raised on).  With
    ``retain_segments=N`` only the newest N survive — bounded *disk*,
    not just bounded memory, for week-long simulated runs where only
    the recent window matters.

    :meth:`reopen` resumes an interrupted spill: the surviving prefix
    is re-verified byte-for-byte (suppress-and-verify) while the
    resumed run replays it, then appending continues mid-segment.
    """

    def __init__(
        self,
        directory,
        segment_records: int = 100_000,
        retain_segments: Optional[int] = None,
    ):
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        if retain_segments is not None and retain_segments < 1:
            raise ValueError("retain_segments must be >= 1 (or None)")
        self.directory = str(directory)
        self.segment_records = int(segment_records)
        self.retain_segments = retain_segments
        os.makedirs(self.directory, exist_ok=True)
        self._fh = None
        self._segment_idx = -1
        self._records_in_segment = 0
        self._closed = False
        #: Totals over the sink's lifetime (rotation never resets them).
        self.total_records = 0
        # Resume (suppress-and-verify) state; see :meth:`reopen`.
        self._suppress_remaining = 0
        self._expected_sha: Optional[str] = None
        self._hasher = None
        #: Bytes dropped from a torn ``.part`` tail during reopen.
        self.repaired_tail_bytes = 0

    @classmethod
    def reopen(
        cls,
        directory,
        segment_records: int = 100_000,
        retain_segments: Optional[int] = None,
    ) -> "JsonlSpillSink":
        """Resume spilling into a directory a crashed run left behind.

        Repairs the torn tail of the final segment in place (truncating
        to the last complete line), then arms suppress-and-verify mode:
        the first N records written to the reopened sink — the resumed
        run deterministically re-emitting the prefix — are *not*
        re-written; they are hashed and compared against the surviving
        bytes, and :class:`SpillResumeMismatch` is raised the moment the
        replayed prefix diverges.  Record N+1 onward appends normally,
        continuing mid-segment.
        """
        if retain_segments is not None:
            raise ValueError(
                "reopen() needs the full segment history to verify the "
                "prefix; retain_segments is not supported on resume"
            )
        sink = cls(directory, segment_records=segment_records)
        info = scan_spill(sink.directory)
        if info["torn_tail_bytes"]:
            idx, path, _n = info["segments"][-1]
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data[: len(data) - info["torn_tail_bytes"]])
                fh.flush()
                os.fsync(fh.fileno())
            sink.repaired_tail_bytes = info["torn_tail_bytes"]
        if info["segments"]:
            sink._segment_idx = info["segments"][-1][0]
            sink._records_in_segment = info["segments"][-1][2]
        sink._suppress_remaining = info["records"]
        sink._expected_sha = info["sha256"]
        sink._hasher = hashlib.sha256()
        if sink._suppress_remaining == 0:
            sink._finish_suppression()
        return sink

    # -- segment bookkeeping -----------------------------------------------

    def _segment_path(self, idx: int) -> str:
        return os.path.join(self.directory, f"segment-{idx:05d}.jsonl")

    def _part_path(self, idx: int) -> str:
        return self._segment_path(idx) + ".part"

    def segments(self) -> list[str]:
        """Paths of the segments on disk, oldest first (incl. active)."""
        return [
            os.path.join(self.directory, name)
            for _idx, name in _scan_segment_names(self.directory)
        ]

    def cursor(self) -> dict:
        """Checkpointable position: total records + segment layout."""
        return {
            "records": self.total_records,
            "segment": self._segment_idx,
            "in_segment": self._records_in_segment,
        }

    def sync(self) -> None:
        """Flush and fsync the active segment (a durability point).

        The checkpoint coordinator calls this before writing a
        snapshot, so every record the snapshot's spill cursor counts is
        actually on disk when a later crash strikes.
        """
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _finalize_active(self) -> None:
        """Promote the active ``.part`` to a durable ``.jsonl``."""
        idx = self._segment_idx
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
            os.replace(self._part_path(idx), self._segment_path(idx))
            _fsync_dir(self.directory)
        elif idx >= 0 and os.path.exists(self._part_path(idx)):
            # Resumed sink that never wrote into its inherited .part.
            os.replace(self._part_path(idx), self._segment_path(idx))
            _fsync_dir(self.directory)

    def _rotate(self) -> None:
        self._finalize_active()
        self._segment_idx += 1
        self._records_in_segment = 0
        self._fh = open(self._part_path(self._segment_idx), "w")
        if self.retain_segments is not None:
            keep_from = max(0, self._segment_idx - self.retain_segments + 1)
            for idx, name in _scan_segment_names(self.directory):
                if idx < keep_from:
                    os.remove(os.path.join(self.directory, name))

    def _open_for_append(self) -> None:
        """Continue writing the inherited final segment after a resume."""
        idx = self._segment_idx
        if os.path.exists(self._segment_path(idx)):
            # Crash landed after finalization: demote back to active.
            os.replace(self._segment_path(idx), self._part_path(idx))
            _fsync_dir(self.directory)
        self._fh = open(self._part_path(idx), "a")

    def _finish_suppression(self) -> None:
        got = self._hasher.hexdigest() if self._hasher is not None else None
        expected = self._expected_sha
        self._suppress_remaining = 0
        self._hasher = None
        self._expected_sha = None
        if expected is not None and got != expected:
            raise SpillResumeMismatch(
                f"resumed run diverged from the spill on disk in "
                f"{self.directory!r}: prefix sha256 {got} != {expected}"
            )

    def _write(self, record: dict) -> None:
        self._write_line(_dumps(record))

    def _write_line(self, line: str) -> None:
        if self._closed:
            raise RuntimeError("JsonlSpillSink is closed")
        if self._suppress_remaining > 0:
            self._hasher.update((line + "\n").encode())
            self.total_records += 1
            self._suppress_remaining -= 1
            if self._suppress_remaining == 0:
                self._finish_suppression()
            return
        if self._fh is None and self._records_in_segment > 0:
            # First post-resume record with room left mid-segment.
            if self._records_in_segment < self.segment_records:
                self._open_for_append()
            else:
                self._rotate()
        elif self._fh is None or self._records_in_segment >= self.segment_records:
            self._rotate()
        self._fh.write(line + "\n")
        self._records_in_segment += 1
        self.total_records += 1

    # -- sink hooks ---------------------------------------------------------

    def on_finish(self, span) -> None:
        self._write_line(span_line(span))

    def on_instant(self, instant) -> None:
        self._write(instant_record(instant))

    def close(self) -> None:
        if self._closed:
            return
        if self.tracer is not None:
            for span in self.tracer.open_spans():
                self._write_line(span_line(span))
            for (comp, _name), metric in self.tracer.metrics.items():
                self._write(metric_record(comp, metric))
        self._finalize_active()
        self._closed = True

    def read_text(self) -> str:
        """Concatenated contents of the retained segments."""
        if self._fh is not None:
            self._fh.flush()
        parts = []
        for path in self.segments():
            with open(path) as fh:
                parts.append(fh.read())
        return "".join(parts)

    def __repr__(self) -> str:
        return (
            f"<JsonlSpillSink {self.directory!r} "
            f"segment={self._segment_idx} records={self.total_records}>"
        )


def _split_torn_tail(text: str) -> tuple[str, str]:
    """Split off a torn (incomplete) trailing line, if any.

    Returns ``(clean_text, torn_tail)``.  A trailing chunk without a
    newline that still parses as JSON is a record whose newline alone
    was lost — kept, not dropped.
    """
    if not text or text.endswith("\n"):
        return text, ""
    cut = text.rfind("\n") + 1
    tail = text[cut:]
    try:
        json.loads(tail)
    except json.JSONDecodeError:
        return text[:cut], tail
    return text + "\n", ""


def tracer_from_segments(directory, on_truncated=None) -> Tracer:
    """Reload a spill directory into an in-memory :class:`Tracer`.

    Tolerates the one kind of damage a crash can cause — a torn final
    line in the last (``.part``) segment: the partial line is dropped
    and *reported*, via ``on_truncated({"directory", "segment",
    "dropped_bytes"})`` when given, else a :class:`UserWarning`.
    Damage anywhere else still raises.
    """
    directory = str(directory)
    names = _scan_segment_names(directory)
    parts = []
    for _idx, name in names:
        with open(os.path.join(directory, name)) as fh:
            parts.append(fh.read())
    if parts:
        clean, torn = _split_torn_tail(parts[-1])
        if torn:
            parts[-1] = clean
            info = {
                "directory": directory,
                "segment": names[-1][1],
                "dropped_bytes": len(torn),
            }
            if on_truncated is not None:
                on_truncated(info)
            else:
                warnings.warn(
                    f"dropped torn final line ({len(torn)} bytes) from "
                    f"{names[-1][1]} in {directory!r}",
                    stacklevel=2,
                )
    return tracer_from_jsonl("".join(parts))


class TeeSink(SpanSink):
    """Fan the span stream out to several sinks in order."""

    def __init__(self, *sinks: SpanSink):
        self.sinks = list(sinks)

    @property
    def spans(self):
        """Delegate to the first retained-span sink in the fanout, so a
        tee that includes an :class:`~repro.obs.tracer.InMemorySink`
        still serves ``tracer.spans`` (getattr sees the AttributeError
        as "not retained" when no inner sink keeps a list)."""
        for sink in self.sinks:
            spans = getattr(sink, "spans", None)
            if spans is not None:
                return spans
        raise AttributeError("no sink in this tee retains spans")

    @property
    def instants(self):
        for sink in self.sinks:
            instants = getattr(sink, "instants", None)
            if instants is not None:
                return instants
        raise AttributeError("no sink in this tee retains instants")

    def attach(self, tracer) -> None:
        self.tracer = tracer
        for sink in self.sinks:
            sink.attach(tracer)

    def on_start(self, span) -> None:
        for sink in self.sinks:
            sink.on_start(span)

    def on_finish(self, span) -> None:
        for sink in self.sinks:
            sink.on_finish(span)

    def on_instant(self, instant) -> None:
        for sink in self.sinks:
            sink.on_instant(instant)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
