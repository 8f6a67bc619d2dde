"""E3 — Fig 5: concurrency of 7875 EnTK tasks (§4.3).

Paper numbers: "ExaAM workflows implemented with EnTK reached a
scheduling throughput of 269 tasks/s, launching 51 tasks/s.  Those
rates are [the] initial slopes of blue and orange lines", where blue is
tasks pending launch and orange is tasks executing concurrently.

Shape targets: scheduling slope ≈ 269/s ≫ launch slope ≈ 51/s; the
executing curve plateaus at pilot capacity (8000/8 = 1000 concurrent
tasks) and drains at the end.  The run is the registry's E3 traced run
at ``full`` scale (``repro.report.scenarios``).
"""

import numpy as np
import pytest

from repro.report.scenarios import SCENARIOS, e3_rules
from repro.viz import render_series, render_table


@pytest.mark.slow
def test_entk_concurrency_curves(benchmark, report, verdict):
    result, tracer = benchmark.pedantic(
        SCENARIOS["E3"].trace, args=("full",), rounds=1, iterations=1
    )
    assert result.succeeded
    prof = result.profiles[0]

    # Measure the initial slopes inside the ramp (before capacity or the
    # scheduler backlog saturates them).
    sched_slope = prof.scheduling_throughput
    launch_slope = prof.launch_throughput
    chart = render_series(
        {
            "pending-launch (blue)": prof.pending_series,
            "executing (orange)": prof.concurrency_series,
        },
        title="E3 / Fig 5: task states over the job",
    )
    table = render_table(
        ["metric", "paper", "measured"],
        [
            ["scheduling throughput", "269 tasks/s", f"{sched_slope:.0f} tasks/s"],
            ["launch throughput", "51 tasks/s", f"{launch_slope:.0f} tasks/s"],
            ["executing plateau", "1000 tasks", f"{prof.peak_concurrency:.0f} tasks"],
        ],
    )
    report("E3_fig5_concurrency", table + "\n\n" + chart)

    assert 200 <= sched_slope <= 280
    assert 40 <= launch_slope <= 60
    assert prof.peak_concurrency == 1000
    # Drain: the executing curve ends at zero.
    assert prof.concurrency_series[1][-1] == 0

    # Both Fig 5 curves regenerated from the trace query API match the
    # live monitors' series (and hence the profile) exactly.
    q = tracer.query()
    pilot = "entk-pilot-0"
    job = q.spans(category="rm.job", name=pilot)[0]
    for category, metric_name, prof_series in [
        ("entk.exec", "executing", prof.concurrency_series),
        ("entk.pending", "pending_launch", prof.pending_series),
    ]:
        gauge = q.concurrency(category=category, component=pilot, t0=job.start)
        live = tracer.metrics.get(metric_name, component=pilot)
        assert gauge.series() == live.series()
        times_q, values_q = gauge.resample(n=400, t_end=job.end)
        assert np.array_equal(times_q, np.asarray(prof_series[0]))
        assert np.array_equal(values_q, np.asarray(prof_series[1]))
    assert q.concurrency(category="entk.exec", component=pilot).peak == 1000

    rep = verdict(
        "E3",
        tracer,
        title="Fig 5 — EnTK task-state concurrency curves",
        headline={
            "scheduling_throughput": sched_slope,
            "launch_throughput": launch_slope,
            "peak_concurrency": prof.peak_concurrency,
            "tasks_done": prof.tasks_done,
        },
        rules=e3_rules(8000),
        component=pilot,
        straggler_category="entk.exec",
    )
    assert rep.ok
