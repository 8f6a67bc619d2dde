"""Live end-to-end speedup gates for the scheduler fast path.

The event-driven scheduler work (coalesced wakeups, a negative-fit
set local to each pass, direct duration timers — see
docs/PERFORMANCE.md) is only worth its complexity if the *end-to-end*
scenarios actually got cheaper.  Raw jobs/s floors would drift with
runner hardware, so these gates assert a machine-normalized quantity
instead: each scenario's throughput divided by the same process's
``kernel_events`` events/s —
"how many end-to-end jobs does one unit of raw event-loop work buy".
Dividing by the live kernel number cancels machine speed; what remains
is the per-job overhead the fast path removed.

The floors sit between the pre-fast-path ratio (computed from the
committed BENCH_PERF.json *baseline* section) and the worst
post-fast-path ratio observed while tuning, so a clean revert of the
scheduler fast path fails the gate while ordinary machine noise does
not:

====================  ==========  =============  =======
scenario (mode)       pre ratio   post observed  floor
====================  ==========  =============  =======
sched_small_jobs (s)  0.0108      0.016-0.022    0.0130
jaws_shards (s)       0.0064      0.013-0.021    0.0095
sched_small_jobs (f)  0.0058      ~0.0140        0.0090
jaws_shards (f)       0.0040      ~0.0074        0.0054
====================  ==========  =============  =======

``entk_frontier`` is not gated: its fast-path gain (~1.4x) is real but
leaves too little headroom between pre (0.0071 smoke) and post
(~0.0089) for a noise-proof floor; the BENCH_PERF regression gate
still covers it at 2x granularity.  The smoke gates run in CI's ``perf-smoke`` lane; the
full gates are marked ``slow``.

Each measurement interleaves repeats of the scenario and the kernel
reference so slow drift in machine load hits both sides of the ratio.
"""

import pytest

from benchmarks.perf.scenarios import SCENARIOS


def _overhead_ratio(name: str, mode: str, repeats: int = 3) -> tuple[float, float, float]:
    """Best scenario throughput / best kernel events/s, interleaved."""
    scenario = SCENARIOS[name]
    kernel = SCENARIOS["kernel_events"]
    tp = eps = 0.0
    for _ in range(repeats):
        tp = max(tp, scenario.run(mode)["throughput"])
        eps = max(eps, kernel.run(mode)["events_per_s"])
    return tp, eps, tp / eps


def _assert_floor(name: str, mode: str, floor: float) -> None:
    tp, eps, ratio = _overhead_ratio(name, mode)
    assert ratio >= floor, (
        f"{name}[{mode}]: {tp:.0f} jobs/s against {eps:.0f} kernel events/s "
        f"is a normalized ratio of {ratio:.5f}, under the {floor} floor — "
        f"the scheduler fast path has regressed (see docs/PERFORMANCE.md)"
    )


# -- smoke gates (CI perf-smoke lane) ----------------------------------------------


def test_smoke_sched_small_jobs_overhead():
    _assert_floor("sched_small_jobs", "smoke", 0.0130)


def test_smoke_jaws_shards_overhead():
    _assert_floor("jaws_shards", "smoke", 0.0095)


# -- full-scale gates (slow) -------------------------------------------------------


@pytest.mark.slow
def test_full_sched_small_jobs_overhead():
    _assert_floor("sched_small_jobs", "full", 0.0090)


@pytest.mark.slow
def test_full_jaws_shards_overhead():
    _assert_floor("jaws_shards", "full", 0.0054)
