"""CI memory gate: a million-span run must not grow the heap.

Streams a high-span-count synthetic storm (see
:func:`benchmarks.perf.obs_bench.span_storm`) through the
constant-memory pipeline, a rotating
:class:`~repro.obs.stream.JsonlSpillSink`, under ``tracemalloc``.  It
fails (exit 1) if the traced-allocation peak exceeds ``--gate-mb``, or
if the spill lost records: the sink must have written one record per
span plus one per metric (the storm records no instants).

This is the enforcement half of the constant-memory contract: span
count must not appear in the memory complexity of a spilled run.  The
in-memory sink at the same span count allocates hundreds of MB; the
gate is set far below that, so a regression that quietly
re-introduces span retention on the spill path trips CI.

The document reports no throughput: the storm runs under
``tracemalloc``, which slows every allocation, so its speed says
nothing about the sink.  ``benchmarks.perf.obs_bench`` times the
sinks untraced.

Run (as CI does)::

    PYTHONPATH=src python -m benchmarks.perf.obs_memory_smoke \
        --spans 1000000 --gate-mb 64 --out obs-results/OBS_SMOKE.json
"""

from __future__ import annotations

import json
import platform
import tempfile
import tracemalloc
from pathlib import Path
from typing import Optional

OBS_SMOKE_SCHEMA = "repro.obs-smoke/v3"


def run_smoke(
    n_spans: int = 1_000_000,
    gate_mb: float = 64.0,
    workdir: Optional[Path] = None,
) -> dict:
    """Run the storm under tracemalloc; returns the result document."""
    from benchmarks.perf.obs_bench import span_storm
    from repro.obs import JsonlSpillSink, Tracer

    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="obs-smoke-")
        workdir = Path(tmp.name)
    else:
        tmp = None
        workdir = Path(workdir)
    try:
        spill = JsonlSpillSink(
            workdir / "spill", segment_records=100_000, retain_segments=3
        )
        tracer = Tracer(sink=spill)

        tracemalloc.start()
        span_storm(tracer, n_spans)
        tracer.close()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        peak_mb = peak / 1e6
        expected = n_spans + len(tracer.metrics)  # the storm has no instants
        return {
            "schema": OBS_SMOKE_SCHEMA,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "spans": n_spans,
            "peak_mb": round(peak_mb, 3),
            "gate_mb": gate_mb,
            "ok": peak_mb <= gate_mb and spill.total_records == expected,
            "segments_on_disk": len(spill.segments()),
            "records": spill.total_records,
            "expected_records": expected,
        }
    finally:
        if tmp is not None:
            tmp.cleanup()


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.obs_memory_smoke",
        description="Constant-memory observability gate (CI).",
    )
    parser.add_argument(
        "--spans",
        type=int,
        default=1_000_000,
        help="span count to spill (default: %(default)s)",
    )
    parser.add_argument(
        "--gate-mb",
        type=float,
        default=64.0,
        help="max allowed tracemalloc peak in MB (default: %(default)s)",
    )
    parser.add_argument("--out", help="optional path for the JSON result")
    args = parser.parse_args(argv)

    doc = run_smoke(args.spans, args.gate_mb)
    print(
        f"[obs-smoke] {doc['spans']} spans, peak {doc['peak_mb']} MB "
        f"(gate {doc['gate_mb']} MB), "
        f"{doc['segments_on_disk']} segments retained",
        flush=True,
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    if not doc["ok"]:
        if doc["peak_mb"] > doc["gate_mb"]:
            print(
                f"OBS MEMORY GATE FAILED: peak {doc['peak_mb']} MB > "
                f"gate {doc['gate_mb']} MB — the spill pipeline is "
                "retaining per-span state",
            )
        else:
            print(
                f"OBS SPILL GATE FAILED: {doc['records']} of "
                f"{doc['expected_records']} records written — the spill "
                "dropped records",
            )
        return 1
    print("obs memory gate ok")
    return 0


__all__ = ["OBS_SMOKE_SCHEMA", "main", "run_smoke"]

if __name__ == "__main__":
    raise SystemExit(main())
