"""Checkpointed execution and resume of the E1–E8 report scenarios.

The scenarios were written long before this layer existed, and their
golden trace digests are pinned — so this runner snapshots them
**without touching their code**: a :func:`repro.obs.tracing_hook`
intercepts the builder's own ``enable_tracing(env)`` call and swaps in
a ``TeeSink(InMemorySink, JsonlSpillSink, SnapshotTrigger)``.  The
in-memory leg keeps ``tracer.spans`` (and hence the report verdicts)
byte-identical to an unhooked run; the spill leg persists every record
crash-safely; the trigger leg fires snapshots when the record stream
crosses the cadence grid.

Because the kernel's calendar holds live Python continuations, a
snapshot does not pickle frames.  It records a **replay token**: the
spill cursor (how many records are already durable) plus sha256
fingerprints of every registered component probe.  ``resume()``
re-executes the scenario deterministically from t=0 with the reopened
spill sink in *suppress-and-verify* mode — the surviving prefix is
hash-compared instead of re-written, appending continues mid-segment,
and when the run crosses the loaded snapshot's index the live
fingerprints must equal the recorded ones (:class:`FingerprintMismatch`
otherwise).  The final trace digest is computed from the spill
segments, so a kill-resume run is byte-comparable to an uninterrupted
one.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.obs.export import to_jsonl
from repro.obs.stream import (
    JsonlSpillSink,
    SpillResumeMismatch,
    TeeSink,
    tracer_from_segments,
)
from repro.obs.tracer import InMemorySink, tracing_hook

from repro.ckpt.coordinator import (
    SnapshotTrigger,
    collect_fingerprints,
    verify_fingerprints,
)
from repro.ckpt.format import (
    FingerprintMismatch,
    SnapshotError,
    canonical_json,
    latest_snapshot,
    read_manifest,
    write_manifest,
    write_snapshot,
)

#: Default snapshot cadence in simulated seconds.  The reduced-scale
#: scenarios span a few simulated hours, so this yields a handful of
#: snapshots per run; week-long full-scale runs get ~1000.
DEFAULT_CADENCE = 600.0

SPILL_DIR = "spill"


@dataclass
class CkptResult:
    """Outcome of one checkpointed run (or resume)."""

    bench_id: str
    directory: str
    #: sha256 over the canonical final trace (spill reload → to_jsonl),
    #: or over the canonical verdict for untraced scenarios (E8).
    digest: str
    report: object = None
    #: Snapshot indices written during this invocation.
    snapshots: list = field(default_factory=list)
    #: Snapshot index the resume verified against (None = cold rerun).
    resumed_from: Optional[int] = None
    #: True when the loaded snapshot's fingerprints were checked live.
    verified: bool = False
    #: Torn bytes repaired off the spill tail during reopen.
    repaired_tail_bytes: int = 0
    #: True when the manifest already said the run finished — nothing
    #: was re-executed.
    already_complete: bool = False

    @property
    def ok(self) -> bool:
        report = self.report
        return bool(report.ok) if report is not None else True


def trace_digest_from_spill(spill_dir) -> str:
    """Canonical digest of a spilled trace (same bytes the golden
    digests pin: ``to_jsonl(tracer, include_metrics=True)``)."""
    tracer = tracer_from_segments(spill_dir)
    return hashlib.sha256(to_jsonl(tracer, include_metrics=True).encode()).hexdigest()


def trace_digest_from_tracer(tracer) -> str:
    return hashlib.sha256(to_jsonl(tracer, include_metrics=True).encode()).hexdigest()


def verdict_digest(report) -> str:
    """Digest for scenarios that produce no trace (E8: scalar SLOs)."""
    return hashlib.sha256(canonical_json(report.to_verdict()).encode()).hexdigest()


def baseline_digest(bench_id: str, full: bool = False) -> str:
    """Digest of an uninterrupted, un-checkpointed run — the golden
    value kill/resume runs must reproduce byte-for-byte."""
    from repro.report.scenarios import run_scenario

    state: dict = {}

    def hook(env, sink):
        state["env"] = env
        return None  # keep the scenario's own sink

    with tracing_hook(hook):
        report = run_scenario(bench_id.upper(), full=full)
    env = state.get("env")
    if env is None:
        return verdict_digest(report)
    return trace_digest_from_tracer(env.tracer)


def run_checkpointed(
    bench_id: str,
    directory,
    cadence: float = DEFAULT_CADENCE,
    full: bool = False,
    segment_records: int = 2000,
    extra_sinks: tuple = (),
) -> CkptResult:
    """Run scenario ``bench_id`` with periodic snapshots into ``directory``.

    The directory must be fresh (no manifest) — an interrupted run is
    continued with :func:`resume`, never by re-running this.
    """
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    if read_manifest(directory) is not None:
        raise SnapshotError(
            f"{directory!r} already holds a checkpointed run; use "
            "resume() to continue it or point at a fresh directory"
        )
    manifest = {
        "kind": "scenario",
        "bench": bench_id.upper(),
        "cadence": float(cadence),
        "full": bool(full),
        "segment_records": int(segment_records),
        "completed": False,
    }
    write_manifest(directory, manifest)
    return _execute(directory, manifest, loaded=None, extra_sinks=extra_sinks)


def resume(directory, extra_sinks: tuple = ()) -> CkptResult:
    """Continue an interrupted checkpointed run to completion.

    Loads the newest valid snapshot (skipping a torn last one),
    re-executes the scenario deterministically with the spill prefix in
    suppress-and-verify mode, checks state fingerprints at the loaded
    snapshot's trigger index, and finishes the run.  Raises
    :class:`FingerprintMismatch` / ``SpillResumeMismatch`` when the
    re-execution does not reproduce what is on disk.
    """
    directory = str(directory)
    manifest = read_manifest(directory)
    if manifest is None:
        raise SnapshotError(f"{directory!r} has no checkpoint manifest")
    if manifest.get("completed"):
        spill_dir = os.path.join(directory, SPILL_DIR)
        digest = manifest.get("digest", "")
        if manifest.get("traced", True) and os.path.isdir(spill_dir):
            digest = trace_digest_from_spill(spill_dir)
        return CkptResult(
            bench_id=manifest["bench"],
            directory=directory,
            digest=digest,
            already_complete=True,
        )
    found = latest_snapshot(directory)
    loaded = found[1] if found is not None else None
    return _execute(directory, manifest, loaded=loaded, extra_sinks=extra_sinks)


def _execute(
    directory: str, manifest: dict, loaded: Optional[dict], extra_sinks: tuple
) -> CkptResult:
    from repro.report.scenarios import run_scenario

    bench = manifest["bench"]
    cadence = float(manifest["cadence"])
    spill_dir = os.path.join(directory, SPILL_DIR)
    resuming = loaded is not None or os.path.isdir(spill_dir)
    loaded_index = int(loaded["index"]) if loaded is not None else -1

    state: dict = {"env": None, "spill": None, "trigger": None}
    written: list = []
    verified: list = []

    def on_trigger(index: int) -> None:
        env, spill = state["env"], state["spill"]
        if index < loaded_index:
            return
        fingerprints = collect_fingerprints(env)
        if index == loaded_index:
            verify_fingerprints(
                loaded["fingerprints"],
                fingerprints,
                where=f"snapshot index {index} (t={env.now})",
            )
            if loaded["spill"]["records"] > spill.total_records:
                raise FingerprintMismatch(
                    f"snapshot {index} counts "
                    f"{loaded['spill']['records']} spill records but the "
                    f"resumed run has only {spill.total_records} at its "
                    "trigger — the spill directory does not match"
                )
            verified.append(index)
            return
        spill.sync()
        write_snapshot(
            directory,
            {
                "kind": "scenario",
                "bench": bench,
                "index": index,
                "sim_time": state["env"].now,
                "cadence": cadence,
                "spill": spill.cursor(),
                "fingerprints": fingerprints,
            },
        )
        written.append(index)

    def hook(env, sink):
        if state["env"] is not None:
            raise SnapshotError(
                "scenario enabled tracing on a second environment; the "
                "checkpoint runner supports exactly one traced env per run"
            )
        if resuming:
            spill = JsonlSpillSink.reopen(
                spill_dir, segment_records=int(manifest["segment_records"])
            )
        else:
            spill = JsonlSpillSink(
                spill_dir, segment_records=int(manifest["segment_records"])
            )
        trigger = SnapshotTrigger(cadence, on_trigger)
        state["env"], state["spill"], state["trigger"] = env, spill, trigger
        return TeeSink(InMemorySink(), spill, trigger, *extra_sinks)

    try:
        with tracing_hook(hook):
            report = run_scenario(bench, full=bool(manifest["full"]))
    except (SnapshotError, SpillResumeMismatch):
        raise
    except Exception as exc:
        # A trigger/sink failure mid-dispatch arrives wrapped in the
        # kernel's SimulationError; surface the checkpoint error itself.
        cause = exc.__cause__
        while cause is not None:
            if isinstance(cause, (SnapshotError, SpillResumeMismatch)):
                raise cause from exc
            cause = cause.__cause__
        raise

    env = state.get("env")
    if env is None:
        # Untraced scenario (E8): nothing to snapshot or spill; the
        # deterministic verdict document is the resumable artifact.
        digest = verdict_digest(report)
        final = dict(manifest)
        final.update(
            completed=True,
            traced=False,
            digest=digest,
            snapshots=[],
            verdict=report.to_verdict(),
        )
        write_manifest(directory, final)
        return CkptResult(
            bench_id=bench,
            directory=directory,
            digest=digest,
            report=report,
            resumed_from=loaded_index if loaded is not None else None,
        )

    env.tracer.close()
    spill = state["spill"]
    if loaded is not None and not verified:
        raise FingerprintMismatch(
            f"resumed run never crossed snapshot index {loaded_index} "
            f"(cadence {cadence}); the snapshot does not belong to this "
            "scenario/scale"
        )
    digest = trace_digest_from_spill(spill_dir)
    final = dict(manifest)
    final.update(
        completed=True,
        traced=True,
        digest=digest,
        records=spill.total_records,
        snapshots=sorted(set(manifest.get("snapshots", [])) | set(written)),
        verdict=report.to_verdict(),
    )
    write_manifest(directory, final)
    return CkptResult(
        bench_id=bench,
        directory=directory,
        digest=digest,
        report=report,
        snapshots=written,
        resumed_from=loaded_index if loaded is not None else None,
        verified=bool(verified),
        repaired_tail_bytes=spill.repaired_tail_bytes,
    )


__all__ = [
    "CkptResult",
    "DEFAULT_CADENCE",
    "SPILL_DIR",
    "baseline_digest",
    "resume",
    "run_checkpointed",
    "trace_digest_from_spill",
    "trace_digest_from_tracer",
    "verdict_digest",
]
