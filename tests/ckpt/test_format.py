"""Snapshot format units: atomicity envelope, torn/stale rejection,
latest-snapshot fallback, pruning, manifest round trip."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckpt.format import (
    MANIFEST_NAME,
    SCHEMA,
    SCHEMA_VERSION,
    SnapshotError,
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

    @pytest.mark.parametrize(
        "text",
        [
            '{"sha256": "00", "snapshot": {"index": NaN}}',
            '{"sha256": "00", "snapshot": {"index": Infinity}}',
            # Checksums that match, so only the body's type is wrong.
            f'{{"sha256": "{fingerprint_digest([1, 2])}", "snapshot": [1, 2]}}',
            f'{{"sha256": "{fingerprint_digest(7)}", "snapshot": 7}}',
            "[1, 2]",
        ],
        ids=["nan", "infinity", "list-body", "int-body", "list-envelope"],
    )
    def test_malformed_body_is_torn_and_skipped(self, tmp_path, text):
        write_snapshot(tmp_path, {"index": 0, "tag": "good"})
        torn = snapshot_path(tmp_path, 1)
        with open(torn, "w") as fh:
            fh.write(text)
        with pytest.raises(TornSnapshotError):
            read_snapshot(torn)
        path, body = latest_snapshot(tmp_path)
        assert path == snapshot_path(tmp_path, 0)
        assert body["_skipped_torn"] == [torn]

    @pytest.mark.parametrize("text", ["[1,2]", "7", '"manifest"', "null"])
    def test_manifest_that_is_not_an_object_is_torn(self, tmp_path, text):
        (tmp_path / MANIFEST_NAME).write_text(text)
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


# -- bounded fuzzing of the readers -------------------------------------------

#: Byte strings a mutation splices in: JSON punctuation, the
#: non-finite literals Python's json accepts, a digit, and bytes that
#: are not UTF-8.
_SPLICES = [b"{", b"}", b"[", b"]", b'"', b",", b":", b" ", b"1", b"-",
            b"NaN", b"Infinity", b"null", b"\\", b"\xff", b"\xc3"]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data) - 1))
        op = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        splice = draw(st.sampled_from(_SPLICES))
        if op == "delete":
            data = data[:i] + data[i + 1:]
        elif op == "insert":
            data = data[:i] + splice + data[i:]
        elif op == "replace":
            data = data[:i] + splice + data[i + 1:]
        else:
            data = data[:i]
        if not data:
            break
    return data


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


def _snapshot_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        # Many one-digit numbers, so a splice often lands on a value.
        path = write_snapshot(
            d, {"index": 1, "cursor": [3, 4, 0, 7], "t": 5, "tag": "newest"}
        )
        with open(path, "rb") as fh:
            return fh.read()


def _manifest_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as d:
        write_manifest(d, {"bench": "E2", "cadence": 50, "completed": False})
        with open(os.path.join(d, MANIFEST_NAME), "rb") as fh:
            return fh.read()


def _assert_read_or_skipped(data: bytes) -> None:
    """``data`` as the newest snapshot: reading it raises nothing but a
    SnapshotError, and ``latest_snapshot`` returns it or falls back
    past it."""
    with tempfile.TemporaryDirectory() as d:
        write_snapshot(d, {"index": 0, "tag": "good"})
        newest = snapshot_path(d, 1)
        with open(newest, "wb") as fh:
            fh.write(data)
        try:
            read_snapshot(newest)
        except SnapshotVersionError:
            # A clean file from another schema is a build mismatch, not
            # damage: resume refuses it rather than skip it.
            with pytest.raises(SnapshotVersionError):
                latest_snapshot(d)
            return
        except TornSnapshotError:
            readable = False
        else:
            readable = True  # e.g. an inserted space between tokens
        path, body = latest_snapshot(d)
        if readable:
            assert path == newest
        else:
            assert path == snapshot_path(d, 0)
            assert body["tag"] == "good"
            assert body["_skipped_torn"] == [newest]


@given(mutated(_snapshot_bytes()))
@settings(max_examples=150, deadline=2000)
def test_mutated_snapshot_is_read_or_skipped(data):
    _assert_read_or_skipped(data)


@given(mutated(_manifest_bytes()))
@settings(max_examples=150, deadline=2000)
def test_mutated_manifest_raises_only_snapshot_errors(data):
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, MANIFEST_NAME), "wb") as fh:
            fh.write(data)
        try:
            doc = read_manifest(d)
        except SnapshotError:
            return
        assert isinstance(doc, dict)


@given(_json_values)
@settings(max_examples=150, deadline=2000)
def test_any_json_manifest_is_read_or_refused(value):
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, MANIFEST_NAME), "w") as fh:
            json.dump(value, fh)
        try:
            doc = read_manifest(d)
        except SnapshotError:
            return
        assert isinstance(doc, dict)


@st.composite
def checksummed_bodies(draw) -> bytes:
    """Envelopes whose checksum matches a body of any JSON shape: the
    whole body replaced, or one field of a valid body replaced (NaN
    and infinities included, which the writer never emits)."""
    body = {"index": 1, "schema": SCHEMA, "version": SCHEMA_VERSION, "tag": "newest"}
    if draw(st.booleans()):
        body = draw(_json_values)
    else:
        body[draw(st.sampled_from(sorted(body)))] = draw(_json_values)
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(encoded.encode()).hexdigest()
    return json.dumps({"sha256": digest, "snapshot": body}).encode()


@given(checksummed_bodies())
@settings(max_examples=150, deadline=2000)
def test_checksummed_snapshot_of_any_body_is_read_or_skipped(data):
    _assert_read_or_skipped(data)
