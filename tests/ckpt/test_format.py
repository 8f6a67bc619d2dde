"""Snapshot format units: atomicity envelope, torn/stale rejection,
latest-snapshot fallback, pruning, manifest round trip."""

from __future__ import annotations

import json
import os

import pytest

from repro.ckpt.format import (
    MANIFEST_NAME,
    SCHEMA,
    SnapshotVersionError,
    TornSnapshotError,
    canonical_json,
    fingerprint_digest,
    latest_snapshot,
    list_snapshots,
    prune_snapshots,
    read_manifest,
    read_snapshot,
    snapshot_path,
    write_manifest,
    write_snapshot,
)


class TestEnvelope:
    def test_write_read_round_trip(self, tmp_path):
        body = {"index": 3, "sim_time": 1800.0, "payload": {"a": [1, 2]}}
        path = write_snapshot(tmp_path, dict(body))
        assert path == snapshot_path(tmp_path, 3)
        loaded = read_snapshot(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["index"] == 3
        assert loaded["payload"] == {"a": [1, 2]}

    def test_envelope_is_checksummed(self, tmp_path):
        path = write_snapshot(tmp_path, {"index": 0, "x": 1})
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc) == {"sha256", "snapshot"}
        assert doc["sha256"] == fingerprint_digest(doc["snapshot"])

    def test_no_tmp_residue(self, tmp_path):
        write_snapshot(tmp_path, {"index": 0})
        assert all(
            not name.endswith(".tmp") for name in os.listdir(tmp_path)
        )

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})


class TestTornAndStale:
    def test_truncated_snapshot_is_torn(self, tmp_path):
        path = write_snapshot(tmp_path, {"index": 0, "big": "x" * 500})
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
        with pytest.raises(TornSnapshotError):
            read_snapshot(path)

    def test_bitflip_fails_checksum(self, tmp_path):
        path = write_snapshot(tmp_path, {"index": 0, "value": 17})
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace("17", "18"))
        with pytest.raises(TornSnapshotError):
            read_snapshot(path)

    def test_stale_schema_rejected(self, tmp_path):
        path = write_snapshot(tmp_path, {"index": 0})
        with open(path) as fh:
            doc = json.load(fh)
        doc["snapshot"]["schema"] = "repro.ckpt/0"
        doc["snapshot"]["version"] = 0
        doc["sha256"] = fingerprint_digest(doc["snapshot"])
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(SnapshotVersionError):
            read_snapshot(path)
        with pytest.raises(SnapshotVersionError):
            latest_snapshot(tmp_path)

    def test_latest_skips_torn_newest(self, tmp_path):
        write_snapshot(tmp_path, {"index": 0, "tag": "old"})
        write_snapshot(tmp_path, {"index": 1, "tag": "good"})
        torn = write_snapshot(tmp_path, {"index": 2, "tag": "torn"})
        with open(torn, "w") as fh:
            fh.write('{"sha256": "feed')
        path, body = latest_snapshot(tmp_path)
        assert path == snapshot_path(tmp_path, 1)
        assert body["tag"] == "good"
        assert body["_skipped_torn"] == [torn]

    def test_latest_skips_newest_with_invalid_utf8(self, tmp_path):
        write_snapshot(tmp_path, {"index": 0, "tag": "good"})
        torn = write_snapshot(tmp_path, {"index": 1, "tag": "torn"})
        with open(torn, "wb") as fh:
            fh.write(b'{"snapshot": "\xff\xfe", "sha256": "00"}')
        with pytest.raises(TornSnapshotError):
            read_snapshot(torn)
        path, body = latest_snapshot(tmp_path)
        assert path == snapshot_path(tmp_path, 0)
        assert body["tag"] == "good"
        assert body["_skipped_torn"] == [torn]

    def test_manifest_with_invalid_utf8_is_torn(self, tmp_path):
        write_manifest(tmp_path, {"bench": "E2"})
        with open(tmp_path / MANIFEST_NAME, "wb") as fh:
            fh.write(b'{"bench": "\xff"}')
        with pytest.raises(TornSnapshotError):
            read_manifest(tmp_path)

    def test_latest_none_when_empty(self, tmp_path):
        assert latest_snapshot(tmp_path) is None


class TestPruneAndManifest:
    def test_prune_keeps_newest(self, tmp_path):
        for i in range(5):
            write_snapshot(tmp_path, {"index": i})
        prune_snapshots(tmp_path, keep=2)
        assert [i for i, _ in list_snapshots(tmp_path)] == [3, 4]
        with pytest.raises(ValueError):
            prune_snapshots(tmp_path, keep=0)

    def test_manifest_round_trip(self, tmp_path):
        assert read_manifest(tmp_path) is None
        write_manifest(tmp_path, {"kind": "scenario", "completed": False})
        doc = read_manifest(tmp_path)
        assert doc["kind"] == "scenario"
        assert doc["completed"] is False
        assert doc["schema"] == SCHEMA  # stamped on write
        assert (tmp_path / MANIFEST_NAME).is_file()
