"""Checkpointed scenario runs: record == baseline, crash+resume ==
golden (also from randomized crash points), and loud rejection of
tampered spills and snapshots."""

from __future__ import annotations

import os
import pathlib
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.ckpt.format import (
    FingerprintMismatch,
    SnapshotError,
    list_snapshots,
    read_manifest,
    read_snapshot,
    write_manifest,
    write_snapshot,
)
from repro.ckpt.runner import (
    SPILL_DIR,
    baseline_digest,
    resume,
    run_checkpointed,
)
from repro.obs.stream import SpillResumeMismatch

BENCH = "E2"
CADENCE = 600.0
SEGMENT_RECORDS = 200

#: Manifest keys that describe the run (vs. record its completion).
_CONFIG_KEYS = ("kind", "bench", "cadence", "full", "segment_records")


def crash_sim(directory, keep_index=None, cut_bytes=0, demote_last=True):
    """Doctor a *completed* checkpoint dir into a crashed-looking one.

    Resets the manifest to in-flight, drops snapshots newer than
    ``keep_index``, shears ``cut_bytes`` off the spill tail (a torn
    buffered write), and demotes the last durable segment back to
    ``.part`` (the state a SIGKILL mid-segment leaves behind).
    """
    directory = pathlib.Path(directory)
    manifest = read_manifest(directory)
    doc = {k: manifest[k] for k in _CONFIG_KEYS}
    doc["completed"] = False
    write_manifest(directory, doc)

    for index, path in list_snapshots(directory):
        if keep_index is not None and index > keep_index:
            os.remove(path)

    segs = sorted((directory / SPILL_DIR).glob("segment-*.jsonl"))
    remaining = cut_bytes
    while remaining > 0 and segs:
        seg = segs[-1]
        size = seg.stat().st_size
        if size <= remaining:
            seg.unlink()
            segs.pop()
            remaining -= size
        else:
            with open(seg, "rb+") as fh:
                fh.truncate(size - remaining)
            remaining = 0
    if demote_last and segs:
        segs[-1].rename(str(segs[-1]) + ".part")


@pytest.fixture(scope="module")
def golden():
    return baseline_digest(BENCH)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, golden):
    """One completed checkpointed E2 run, copied per test."""
    d = tmp_path_factory.mktemp("ckpt-recorded") / "run"
    result = run_checkpointed(
        BENCH, d, cadence=CADENCE, segment_records=SEGMENT_RECORDS
    )
    assert result.digest == golden
    assert len(result.snapshots) >= 3
    return d


@pytest.fixture
def crashed(recorded, tmp_path):
    """A fresh copy of the recorded run, ready for doctoring."""
    d = tmp_path / "run"
    shutil.copytree(recorded, d)
    return d


class TestRecord:
    def test_record_matches_uncheckpointed_baseline(self, recorded, golden):
        manifest = read_manifest(recorded)
        assert manifest["completed"] is True
        assert manifest["digest"] == golden

    def test_rerun_into_existing_directory_refused(self, recorded):
        with pytest.raises(SnapshotError):
            run_checkpointed(BENCH, recorded)

    def test_resume_of_completed_run_is_a_noop(self, recorded, golden):
        result = resume(recorded)
        assert result.already_complete
        assert result.digest == golden


class TestCrashResume:
    def test_resume_reproduces_golden_digest(self, crashed, golden):
        snaps = [i for i, _ in list_snapshots(crashed)]
        keep = snaps[len(snaps) // 2]
        crash_sim(crashed, keep_index=keep, cut_bytes=4096)
        result = resume(crashed)
        assert result.digest == golden
        assert result.resumed_from == keep
        assert result.verified
        assert read_manifest(crashed)["completed"] is True

    def test_resume_with_no_snapshot_left(self, crashed, golden):
        crash_sim(crashed, keep_index=-1, cut_bytes=4096)
        result = resume(crashed)
        assert result.digest == golden
        assert result.resumed_from is None

    def test_torn_newest_snapshot_falls_back(self, crashed, golden):
        crash_sim(crashed, cut_bytes=4096)
        snaps = list_snapshots(crashed)
        newest_path = snaps[-1][1]
        with open(newest_path, "rb+") as fh:
            fh.truncate(fh.seek(0, 2) // 2)
        result = resume(crashed)
        assert result.digest == golden
        assert result.resumed_from == snaps[-2][0]
        assert result.verified


class TestTamperRejection:
    def test_tampered_spill_record_raises(self, crashed):
        crash_sim(crashed, cut_bytes=4096)
        seg = sorted((crashed / "spill").glob("segment-*.jsonl"))[0]
        lines = seg.read_text().splitlines(keepends=True)
        # Flip one digit inside a durable record without changing the
        # line count: the resumed run's replayed bytes no longer hash to
        # the on-disk prefix.
        target = lines[1]
        for ch in "0123456789":
            if ch in target:
                lines[1] = target.replace(ch, "9" if ch != "9" else "8", 1)
                break
        assert lines[1] != target
        seg.write_text("".join(lines))
        with pytest.raises(SpillResumeMismatch):
            resume(crashed)

    def test_tampered_fingerprints_raise(self, crashed):
        snaps = [i for i, _ in list_snapshots(crashed)]
        keep = snaps[len(snaps) // 2]
        crash_sim(crashed, keep_index=keep, cut_bytes=4096)
        index, path = list_snapshots(crashed)[-1]
        body = read_snapshot(path)
        name = sorted(body["fingerprints"])[0]
        digest = body["fingerprints"][name]
        body["fingerprints"][name] = ("0" * 8) + digest[8:]
        body.pop("schema"), body.pop("version")
        write_snapshot(crashed, body)  # re-checksummed: torn-detection passes
        with pytest.raises(FingerprintMismatch):
            resume(crashed)


#: A fast traced scenario with many snapshots and spill segments.
FAST_BENCH = "E5"
FAST_CADENCE = 60.0
FAST_SEGMENT_RECORDS = 50


@pytest.fixture(scope="module")
def fast_recorded(tmp_path_factory):
    """One completed E5 run plus its uninterrupted digest."""
    d = tmp_path_factory.mktemp("ckpt-fast") / "run"
    result = run_checkpointed(
        FAST_BENCH, d, cadence=FAST_CADENCE, segment_records=FAST_SEGMENT_RECORDS
    )
    assert len(result.snapshots) >= 10
    assert result.digest == baseline_digest(FAST_BENCH)
    spill_bytes = sum(p.stat().st_size for p in (d / SPILL_DIR).iterdir())
    return d, result.digest, spill_bytes


@settings(
    max_examples=9,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# Newest snapshot kept, half the spill sheared: far below its cursor.
@example(keep_frac=1.0, cut_frac=0.5, demote_last=True)
@given(
    keep_frac=st.floats(min_value=0.0, max_value=1.0),
    cut_frac=st.floats(min_value=0.0, max_value=1.0),
    demote_last=st.booleans(),
)
def test_resume_at_random_crash_point_reproduces_digest(
    fast_recorded, keep_frac, cut_frac, demote_last
):
    """Any kept snapshot, any spill shear (down to below the kept
    snapshot's cursor, or the whole spill): resume == golden digest.
    Replay re-simulates whatever records the crash lost."""
    recorded, golden, spill_bytes = fast_recorded
    with tempfile.TemporaryDirectory(prefix="ckpt-hyp-") as work:
        d = pathlib.Path(work) / "run"
        shutil.copytree(recorded, d)
        snaps = [i for i, _ in list_snapshots(d)]
        keep = snaps[min(int(keep_frac * len(snaps)), len(snaps) - 1)]
        crash_sim(
            d,
            keep_index=keep,
            cut_bytes=int(cut_frac * spill_bytes),
            demote_last=demote_last,
        )
        result = resume(d)
        assert result.digest == golden
        assert result.resumed_from == keep
        assert result.verified
