"""Tracer-overhead micro-benchmark — ``BENCH_OBS.json``.

Drives a synthetic "span storm" (a deterministic open/close workload
with a bounded number of concurrently-open spans) through each span
sink and reports, per sink mode:

- ``spans_per_s`` — wall-clock span throughput (``time.perf_counter``)
  of the fastest of :data:`REPEATS` storms run without ``tracemalloc``
  (best-of-N, as ``harness --repeats`` keeps the best wall: one storm
  lasts well under a second, so a single timing mostly measures
  scheduler noise on a shared machine),
- ``peak_mb`` — ``tracemalloc`` peak during one more, identical storm
  (tracing allocations slows the allocating modes most, so it never
  shares a pass with the timing),
- ``wall_s`` (of the fastest untraced storm) and the span count.

Modes measured:

- ``null`` — the :class:`~repro.obs.tracer.NullTracer` floor (what an
  untraced run pays at every instrumentation point),
- ``memory`` — the default :class:`~repro.obs.tracer.InMemorySink`
  (every span retained; memory grows linearly),
- ``spill`` — :class:`~repro.obs.stream.JsonlSpillSink` with a small
  retention window (segments rotate to disk; memory stays flat).

Run::

    PYTHONPATH=src python -m benchmarks.perf.obs_bench --spans 200000

The committed ``benchmarks/results/BENCH_OBS.json`` records a
reference run; regenerate it when the tracer hot path changes.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Optional

BENCH_OBS_SCHEMA = "repro.obs-bench/v1"

#: Untraced storms timed per mode; the fastest one is kept.
REPEATS = 3

# Storm shape: open spans cycle within a bounded window so the live-span
# set stays small and the workload exercises start/finish symmetrically.
OPEN_WINDOW = 64
_CATEGORIES = ("entk.exec", "entk.stage", "rm.alloc", "cws.fuse")
_COMPONENTS = ("pilot-0", "pilot-1", "sched")


def _lcg(seed: int = 0x2545F491):
    """Deterministic 32-bit LCG — no ``random`` import, no global state."""
    state = seed & 0xFFFFFFFF
    while True:
        state = (1103515245 * state + 12345) & 0xFFFFFFFF
        yield state


def span_storm(tracer, n_spans: int, seed: int = 7) -> None:
    """Open/close ``n_spans`` spans against ``tracer``.

    Spans are opened at a monotonically increasing simulated time and
    closed oldest-first once more than :data:`OPEN_WINDOW` are live, so
    every sink sees realistic interleaving without unbounded growth in
    the *workload* itself (growth in the sink is what we measure).
    """
    rng = _lcg(seed)
    open_spans: list = []
    t = 0.0
    for i in range(n_spans):
        r = next(rng)
        t += 0.001 + (r % 997) / 1e6
        span = tracer.span(
            f"task-{i}",
            category=_CATEGORIES[r % len(_CATEGORIES)],
            component=_COMPONENTS[r % len(_COMPONENTS)],
            t=t,
        )
        span.tag(state="DONE")
        open_spans.append(span)
        while len(open_spans) > OPEN_WINDOW:
            t += 0.0005
            open_spans.pop(0).finish(t=t)
    while open_spans:
        t += 0.0005
        open_spans.pop(0).finish(t=t)


def _storm(make_tracer, n_spans: int) -> float:
    """Run one storm on a fresh tracer; returns its wall seconds."""
    tracer, cleanup = make_tracer()
    t0 = time.perf_counter()
    span_storm(tracer, n_spans)
    tracer.close()
    wall = time.perf_counter() - t0
    cleanup()
    return wall


def _measure(make_tracer, n_spans: int) -> dict:
    """Throughput from the fastest of :data:`REPEATS` untraced storms,
    then the allocation peak from one more storm under ``tracemalloc``."""
    wall = min(_storm(make_tracer, n_spans) for _ in range(REPEATS))
    tracemalloc.start()
    try:
        _storm(make_tracer, n_spans)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "spans": n_spans,
        "wall_s": round(wall, 4),
        "spans_per_s": round(n_spans / wall) if wall > 0 else None,
        "peak_mb": round(peak / 1e6, 3),
    }


def _make_modes(workdir: Path) -> dict:
    from repro.obs import JsonlSpillSink, NullTracer, Tracer

    def null():
        return NullTracer(), lambda: None

    def memory():
        return Tracer(clock=None), lambda: None

    def spill():
        d = workdir / "spill"
        sink = JsonlSpillSink(d, segment_records=50_000, retain_segments=2)
        tracer = Tracer(clock=None, sink=sink)

        def cleanup():
            for p in d.glob("segment-*.jsonl"):
                p.unlink()

        return tracer, cleanup

    return {"null": null, "memory": memory, "spill": spill}


def run_bench(n_spans: int = 200_000, workdir: Optional[Path] = None) -> dict:
    """Measure every sink mode; returns the BENCH_OBS document."""
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="obs-bench-")
        workdir = Path(tmp.name)
    else:
        tmp = None
        workdir = Path(workdir)
    try:
        modes = {}
        for name, make in _make_modes(workdir).items():
            modes[name] = _measure(make, n_spans)
        null_rate = modes["null"]["spans_per_s"]
        for name, metrics in modes.items():
            rate = metrics["spans_per_s"]
            metrics["relative_to_null"] = (
                round(rate / null_rate, 3) if null_rate and rate else None
            )
        return {
            "schema": BENCH_OBS_SCHEMA,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "spans": n_spans,
            "open_window": OPEN_WINDOW,
            "modes": modes,
        }
    finally:
        if tmp is not None:
            tmp.cleanup()


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.obs_bench",
        description="Tracer-overhead micro-benchmark; writes BENCH_OBS.json.",
    )
    parser.add_argument(
        "--spans",
        type=int,
        default=200_000,
        help="spans per sink mode (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results/BENCH_OBS.json",
        help="output path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    doc = run_bench(args.spans)
    for name, m in doc["modes"].items():
        print(
            f"[obs-bench] {name:>6}: {m['spans_per_s']:>9} spans/s  "
            f"peak={m['peak_mb']:.3f} MB  "
            f"({m['relative_to_null']}x of null)",
            flush=True,
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


__all__ = ["BENCH_OBS_SCHEMA", "OPEN_WINDOW", "main", "run_bench", "span_storm"]

if __name__ == "__main__":
    raise SystemExit(main())
