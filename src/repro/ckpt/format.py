"""Snapshot format: versioned, checksummed, atomically written.

A checkpoint directory holds:

- ``manifest.json`` — run configuration (scenario key, cadence, spill
  layout) plus the completion marker and final digest.  Written
  atomically at run start and rewritten at completion.
- ``ckpt-<index>.json`` — one snapshot per cadence index.  Each file
  is a single JSON document ``{"sha256": <hex>, "snapshot": <body>}``
  where the checksum covers the canonical encoding of the body; the
  body carries a schema version, the simulated trigger instant, the
  spill cursor, and the kind-specific payload.
- ``spill/`` — the :class:`~repro.obs.stream.JsonlSpillSink` segments
  (owned by the obs layer, not this module).

Durability contract: a snapshot file either parses *and* checksums
clean, or it is **torn** — the write-rename never completed — and
:func:`latest_snapshot` silently falls back to the previous one.  A
snapshot that checksums clean but carries a different schema version is
**stale** and is rejected loudly (:class:`SnapshotVersionError`): the
resuming code cannot know how to interpret it, and silently skipping it
would resume from an older instant than the user expects.

Everything is written tmp-file → flush → fsync → ``os.replace`` →
directory fsync, so a SIGKILL at any instant leaves at most one torn
``*.tmp`` leftover and never a half-written ``.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Optional

#: Bump on any incompatible change to the snapshot body layout.
SCHEMA_VERSION = 2
SCHEMA = f"repro.ckpt/{SCHEMA_VERSION}"

MANIFEST_NAME = "manifest.json"

_SNAPSHOT_RE = re.compile(r"^ckpt-(\d{6})\.json$")


class SnapshotError(RuntimeError):
    """Base class for snapshot load/validation failures."""


class TornSnapshotError(SnapshotError):
    """The file is unreadable, unparseable, or fails its checksum —
    the atomic rename never completed (or the file was mangled)."""


class SnapshotVersionError(SnapshotError):
    """The snapshot parses clean but uses a different schema version."""


class FingerprintMismatch(SnapshotError):
    """A resumed run reached the snapshot's trigger point in a
    different state than the recorded run — determinism is broken and
    the resume must not be trusted."""


def canonical_json(obj) -> str:
    """Deterministic, strict JSON: sorted keys, compact, no NaN/inf."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint_digest(obj) -> str:
    """sha256 over the canonical JSON encoding of a probe's state."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- snapshots ---------------------------------------------------------------


def snapshot_path(directory, index: int) -> str:
    return os.path.join(str(directory), f"ckpt-{index:06d}.json")


def write_snapshot(directory, body: dict) -> str:
    """Atomically persist one snapshot; returns its path.

    ``body`` must carry ``index`` (the cadence index, used for the
    filename) and is stamped with the schema identifiers here.
    """
    body = dict(body)
    body["schema"] = SCHEMA
    body["version"] = SCHEMA_VERSION
    encoded = canonical_json(body)
    doc = {
        "sha256": hashlib.sha256(encoded.encode()).hexdigest(),
        "snapshot": body,
    }
    path = snapshot_path(directory, int(body["index"]))
    _atomic_write(path, canonical_json(doc))
    return path


def _load_object(path, what: str) -> dict:
    """Parse ``path`` as one JSON object, or raise
    :class:`TornSnapshotError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, absurdly deep nesting
        raise TornSnapshotError(f"unreadable {what} {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise TornSnapshotError(f"{what} {path!r} is not a JSON object")
    return doc


def read_snapshot(path) -> dict:
    """Load and validate one snapshot body.

    Raises :class:`TornSnapshotError` on unreadable/corrupt files and
    :class:`SnapshotVersionError` on schema mismatch.
    """
    doc = _load_object(path, "snapshot")
    if "snapshot" not in doc or "sha256" not in doc:
        raise TornSnapshotError(f"snapshot {path!r} missing envelope fields")
    body = doc["snapshot"]
    if not isinstance(body, dict):
        raise TornSnapshotError(f"snapshot {path!r} body is not an object")
    try:
        encoded = canonical_json(body)
    except ValueError as exc:  # NaN or infinity: never written by us
        raise TornSnapshotError(f"snapshot {path!r}: {exc}") from exc
    digest = hashlib.sha256(encoded.encode()).hexdigest()
    if digest != doc["sha256"]:
        raise TornSnapshotError(
            f"checksum mismatch in {path!r}: {digest} != {doc['sha256']}"
        )
    if body.get("version") != SCHEMA_VERSION:
        raise SnapshotVersionError(
            f"snapshot {path!r} has schema {body.get('schema')!r}; this "
            f"build reads {SCHEMA!r} — refusing to guess at its layout"
        )
    return body


def list_snapshots(directory) -> list[tuple[int, str]]:
    """``(index, path)`` of every snapshot file, oldest first."""
    directory = str(directory)
    out = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        m = _SNAPSHOT_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(directory, name)))
    out.sort()
    return out


def latest_snapshot(directory) -> Optional[tuple[str, dict]]:
    """Newest *valid* snapshot ``(path, body)``, or ``None``.

    Torn snapshots (the one kind of damage a crash can produce) are
    skipped, newest-first, falling back to the previous one — the
    recovery path the crash-injection harness exercises.  A stale
    schema version still raises: that is a build mismatch, not crash
    damage, and resuming past it silently would be lying about the
    resume point.
    """
    skipped: list[str] = []
    for index, path in reversed(list_snapshots(directory)):
        try:
            body = read_snapshot(path)
        except TornSnapshotError:
            skipped.append(path)
            continue
        if skipped:
            body = dict(body)
            body["_skipped_torn"] = skipped
        return path, body
    return None


def prune_snapshots(directory, keep: int = 2) -> int:
    """Delete all but the newest ``keep`` snapshots; returns #removed.

    Two generations are the safe floor: the newest may be mid-rename
    when the next crash strikes.
    """
    if keep < 1:
        raise ValueError("keep must be >= 1")
    snaps = list_snapshots(directory)
    doomed = snaps[:-keep] if len(snaps) > keep else []
    for _index, path in doomed:
        os.remove(path)
    return len(doomed)


# -- manifest ----------------------------------------------------------------


def write_manifest(directory, doc: dict) -> str:
    doc = dict(doc)
    doc["schema"] = SCHEMA
    doc["version"] = SCHEMA_VERSION
    path = os.path.join(str(directory), MANIFEST_NAME)
    _atomic_write(path, canonical_json(doc))
    return path


def read_manifest(directory) -> Optional[dict]:
    path = os.path.join(str(directory), MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    doc = _load_object(path, "manifest")
    if doc.get("version") != SCHEMA_VERSION:
        raise SnapshotVersionError(
            f"manifest {path!r} has schema {doc.get('schema')!r}; this "
            f"build reads {SCHEMA!r}"
        )
    return doc


__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "FingerprintMismatch",
    "SnapshotError",
    "SnapshotVersionError",
    "TornSnapshotError",
    "canonical_json",
    "fingerprint_digest",
    "latest_snapshot",
    "list_snapshots",
    "prune_snapshots",
    "read_manifest",
    "read_snapshot",
    "snapshot_path",
    "write_manifest",
    "write_snapshot",
]
