"""Deterministic checkpoint/resume for long simulated runs.

Replay-token mode (:mod:`repro.ckpt.runner`): the pinned E1–E8
scenarios run unmodified; snapshots (:mod:`repro.ckpt.format`) record a
spill cursor plus state fingerprints, and resume re-executes
deterministically from t=0, verifying the surviving prefix
byte-for-byte and the component fingerprints at the snapshot instant.
At full scale a resume costs at most one uninterrupted run.

Crash-injection proof lives in ``tests/chaos`` and the ``ckpt-smoke``
CI job; the format and invariants are documented in
``docs/CHECKPOINT.md``.
"""

from repro.ckpt.format import (
    SCHEMA,
    SCHEMA_VERSION,
    FingerprintMismatch,
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
    write_manifest,
    write_snapshot,
)
from repro.ckpt.coordinator import (
    SnapshotTrigger,
    collect_fingerprints,
    verify_fingerprints,
)
from repro.ckpt.runner import (
    CkptResult,
    DEFAULT_CADENCE,
    baseline_digest,
    resume,
    run_checkpointed,
    trace_digest_from_spill,
    trace_digest_from_tracer,
    verdict_digest,
)

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "CkptResult",
    "DEFAULT_CADENCE",
    "FingerprintMismatch",
    "SnapshotError",
    "SnapshotTrigger",
    "SnapshotVersionError",
    "TornSnapshotError",
    "baseline_digest",
    "canonical_json",
    "collect_fingerprints",
    "fingerprint_digest",
    "latest_snapshot",
    "list_snapshots",
    "prune_snapshots",
    "read_manifest",
    "read_snapshot",
    "resume",
    "run_checkpointed",
    "trace_digest_from_spill",
    "trace_digest_from_tracer",
    "verdict_digest",
    "verify_fingerprints",
    "write_manifest",
    "write_snapshot",
]
