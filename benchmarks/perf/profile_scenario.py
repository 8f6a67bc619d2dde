"""Profile any perf scenario under cProfile.

``--scenario`` picks any entry in
:data:`benchmarks.perf.scenarios.SCENARIOS`, so the same per-call view
that steered the calendar-queue rewrite (docs/SIMKERNEL.md) works for
the scheduler-bound and end-to-end scenarios too.  The
event-driven scheduler fast path was steered by exactly this tool:
``--scenario sched_small_jobs`` showed the per-wakeup full queue scans.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/profile_scenario.py
    PYTHONPATH=src python benchmarks/perf/profile_scenario.py --scenario sched_small_jobs
    PYTHONPATH=src python benchmarks/perf/profile_scenario.py --scenario jaws_shards --mode full
    PYTHONPATH=src python benchmarks/perf/profile_scenario.py --scenario kernel_events --naive
    PYTHONPATH=src python benchmarks/perf/profile_scenario.py --scenario entk_frontier --out entk.pstats

``--naive`` applies to ``kernel_events`` only and profiles the preserved
seed loop (NaiveEnvironment) — the quickest way to see *where* the
calendar queue's win comes from.  ``--out`` dumps raw stats for
snakeviz/pstats tooling.

Beside the table, a ``gc.callbacks`` timer reports the cyclic
collections and their seconds per generation: cProfile charges that
time to whichever function happened to allocate when a collection
started.

Note cProfile's per-call hook overhead flattens measured ratios — use
``benchmarks/test_kernel_speedup.py`` / ``benchmarks/test_e2e_speedup.py``
for honest wall-clock numbers; use this for *where the time goes*.
"""

import argparse
import cProfile
import gc
import pstats
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.perf.scenarios import SCENARIOS, kernel_events  # noqa: E402


class GcTimer:
    """Cyclic-GC collections and seconds per generation, timed by a
    ``gc.callbacks`` hook while the ``with`` block runs."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = perf_counter()
        else:
            gen = info["generation"]
            self.collections[gen] += 1
            self.seconds[gen] += perf_counter() - self._t0

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)

    def summary(self) -> dict:
        return {
            "collections": list(self.collections),
            "seconds": [round(s, 6) for s in self.seconds],
            "total_s": round(sum(self.seconds), 6),
        }

    def render(self) -> str:
        rows = ", ".join(
            f"gen{g} {n} in {s:.4f}s"
            for g, (n, s) in enumerate(zip(self.collections, self.seconds))
        )
        return f"cyclic GC: {rows}; total {sum(self.seconds):.4f}s"


def profile_scenario(
    name: str,
    mode: str = "smoke",
    naive: bool = False,
    sort: str = "tottime",
    limit: int = 25,
    out: str | None = None,
    stream=sys.stderr,
) -> dict:
    """Run scenario ``name`` at ``mode`` scale under cProfile.

    Prints the stats table to stdout and summary lines, the cyclic-GC
    one included, to ``stream``.  Returns a summary: ``stats`` (the
    :class:`pstats.Stats`, for callers that dump or post-process it),
    the scenario's ``metrics`` and ``gc`` (collections and seconds per
    generation, and their total).
    """
    scenario = SCENARIOS[name]
    params = getattr(scenario, mode)
    profiler = cProfile.Profile()
    gc_timer = GcTimer()
    gc.collect()  # import-time garbage is not the scenario's

    if naive:
        if name != "kernel_events":
            raise SystemExit("--naive only applies to --scenario kernel_events")
        from repro.simkernel import NaiveEnvironment

        print(
            f"profiling kernel_events[{mode}] on NaiveEnvironment ({params})",
            file=stream,
        )
        fn, kwargs = kernel_events, dict(params, env_cls=NaiveEnvironment)
    else:
        print(f"profiling {name}[{mode}] ({params})", file=stream)
        fn, kwargs = scenario.fn, params
    with gc_timer:
        profiler.enable()
        metrics = fn(**kwargs)
        profiler.disable()

    print(
        f"{metrics['events']} events in {metrics['wall_s']}s under the "
        f"profiler ({metrics['events_per_s']} events/s)", file=stream,
    )
    print(gc_timer.render(), file=stream)
    stats = pstats.Stats(profiler)
    stats.sort_stats(sort).print_stats(limit)
    if out:
        stats.dump_stats(out)
        print(f"wrote {out}", file=stream)
    return {"stats": stats, "metrics": metrics, "gc": gc_timer.summary()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="kernel_events",
        help="perf scenario to profile (default: %(default)s)",
    )
    parser.add_argument(
        "--mode", choices=("smoke", "full"), default="smoke",
        help="scenario scale to profile (default: %(default)s)",
    )
    parser.add_argument(
        "--naive", action="store_true",
        help="kernel_events only: profile the seed loop (NaiveEnvironment)",
    )
    parser.add_argument(
        "--sort", default="tottime",
        help="pstats sort key (default: %(default)s; try cumulative, ncalls)",
    )
    parser.add_argument(
        "--limit", type=int, default=25,
        help="rows of the stats table to print (default: %(default)s)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="also dump raw stats to FILE for snakeviz/pstats",
    )
    args = parser.parse_args(argv)
    profile_scenario(
        args.scenario,
        mode=args.mode,
        naive=args.naive,
        sort=args.sort,
        limit=args.limit,
        out=args.out,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
