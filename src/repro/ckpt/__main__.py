"""``python -m repro.ckpt`` — checkpointed runs, resume, digests.

Subcommands::

    python -m repro.ckpt run --bench E2 --dir /tmp/ckpt        # record
    python -m repro.ckpt resume --dir /tmp/ckpt                # continue
    python -m repro.ckpt digest --dir /tmp/ckpt                # recompute

``run``/``resume`` print the final trace digest on stdout (the value
kill/resume round trips are gated on) and exit non-zero when the
scenario's SLO verdict fails.  ``--throttle-ms`` slows record emission
in wall-clock terms so the crash-injection harness can land SIGKILLs
mid-run; it does not affect simulated time or the trace bytes.
``run`` prints one ``error:`` line and exits 2, writing nothing, for a
bench id the scenario registry does not know; ``resume`` and
``digest`` do the same when the directory holds no run to act on.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.obs.tracer import SpanSink
from repro.report.scenarios import scenario_id

from repro.ckpt.format import read_manifest
from repro.ckpt.runner import (
    DEFAULT_CADENCE,
    SPILL_DIR,
    resume,
    run_checkpointed,
    trace_digest_from_spill,
)


class ThrottleSink(SpanSink):
    """Wall-clock brake for crash-injection runs: sleep per record so a
    SIGKILL from the harness lands at an unpredictable point of the
    record stream.  Simulated time and trace bytes are untouched."""

    def __init__(self, seconds_per_record: float):
        self.delay = seconds_per_record

    def _brake(self) -> None:
        time.sleep(self.delay)  # simlint: disable=KER002 -- wall-clock pacing for the SIGKILL harness; deliberately outside simulated time

    def on_finish(self, span) -> None:
        self._brake()

    def on_instant(self, instant) -> None:
        self._brake()


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt",
        description="Deterministic checkpoint/resume for benchmark runs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="start a checkpointed run")
    run.add_argument("--dir", required=True, help="checkpoint directory")
    run.add_argument("--bench", default="E2", help="scenario id (default E2)")
    run.add_argument("--cadence", type=float, default=None,
                     help="snapshot cadence in simulated seconds")
    run.add_argument("--full", action="store_true",
                     help="paper-scale scenario parameters")
    run.add_argument("--segment-records", type=int, default=2000)
    run.add_argument("--throttle-ms", type=float, default=0.0,
                     help="wall-clock sleep per record (crash harness)")

    res = sub.add_parser("resume", help="continue an interrupted run")
    res.add_argument("--dir", required=True)
    res.add_argument("--throttle-ms", type=float, default=0.0)

    dig = sub.add_parser("digest", help="recompute a run's trace digest")
    dig.add_argument("--dir", required=True)

    return parser.parse_args(argv)


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _digest(directory: str, manifest: dict) -> int:
    if manifest.get("completed") and not manifest.get("traced", True):
        print(manifest["digest"])
        return 0
    spill_dir = os.path.join(directory, SPILL_DIR)
    if not os.path.isdir(spill_dir):
        return _error(f"no {SPILL_DIR}/ directory in {directory!r}")
    print(trace_digest_from_spill(spill_dir))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    throttle = getattr(args, "throttle_ms", 0.0)
    extra = (ThrottleSink(throttle / 1000.0),) if throttle > 0 else ()

    if args.cmd == "run":
        try:
            scenario_id(args.bench)
        except KeyError as exc:
            return _error(exc.args[0])
        result = run_checkpointed(
            args.bench,
            args.dir,
            cadence=args.cadence if args.cadence is not None else DEFAULT_CADENCE,
            full=args.full,
            segment_records=args.segment_records,
            extra_sinks=extra,
        )
    else:
        manifest = read_manifest(args.dir)
        if manifest is None:
            return _error(f"no checkpoint manifest in {args.dir!r}")
        if args.cmd == "digest":
            return _digest(args.dir, manifest)
        result = resume(args.dir, extra_sinks=extra)

    print(result.digest)
    if result.resumed_from is not None:
        print(
            f"[resumed from snapshot {result.resumed_from}; "
            f"fingerprints {'verified' if result.verified else 'n/a'}; "
            f"repaired {result.repaired_tail_bytes} torn bytes]",
            file=sys.stderr,
        )
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
