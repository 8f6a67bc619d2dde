"""Checkpointed runs of the E5 scenario at a fine snapshot cadence: two
runs agree on digest and snapshot indices, and resume after a crash
that left a torn partial record on the open spill segment reproduces
the uninterrupted digest, from a mid-run snapshot or from none."""

from __future__ import annotations

import pathlib

from repro.ckpt.format import list_snapshots
from repro.ckpt.runner import SPILL_DIR, baseline_digest, resume, run_checkpointed
from tests.ckpt.test_runner import crash_sim

BENCH = "E5"
CADENCE = 60.0
SEGMENT_RECORDS = 50


def _run(directory):
    return run_checkpointed(
        BENCH, directory, cadence=CADENCE, segment_records=SEGMENT_RECORDS
    )


def _append_torn_tail(directory, tail):
    """Append a partial record to the open ``.part`` spill segment."""
    part = sorted((pathlib.Path(directory) / SPILL_DIR).glob("*.part"))[-1]
    part.write_bytes(part.read_bytes() + tail)


class TestNativeDeterminism:
    def test_two_runs_same_digest(self, tmp_path):
        a = _run(tmp_path / "a")
        b = _run(tmp_path / "b")
        assert a.digest == b.digest == baseline_digest(BENCH)
        assert a.snapshots == b.snapshots
        assert len(a.snapshots) >= 3

    def test_resume_from_midpoint_snapshot(self, tmp_path):
        golden = _run(tmp_path / "run")
        keep = golden.snapshots[len(golden.snapshots) // 2]
        crash_sim(tmp_path / "run", keep_index=keep, cut_bytes=700)
        _append_torn_tail(tmp_path / "run", b'{"torn')
        assert max(i for i, _ in list_snapshots(tmp_path / "run")) == keep
        result = resume(tmp_path / "run")
        assert result.digest == golden.digest
        assert result.resumed_from == keep
        assert result.verified

    def test_resume_with_all_snapshots_gone(self, tmp_path):
        golden = _run(tmp_path / "run")
        crash_sim(tmp_path / "run", keep_index=-1, cut_bytes=500)
        _append_torn_tail(tmp_path / "run", b'{"half-a-record')
        assert list_snapshots(tmp_path / "run") == []
        result = resume(tmp_path / "run")
        assert result.digest == golden.digest
        assert result.resumed_from is None  # no token left: cold re-run
