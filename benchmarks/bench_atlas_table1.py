"""E5 — Table 1: per-step instance metrics, cloud run (§5.2.1).

Paper (99 SRA files on EC2): Salmon is the most resource-consuming
step (CPU 94%/100%, memory up to 2.8 GB); fasterq-dump has the worst
mean iowait (26%, max 91%); prefetch barely uses CPU (21% mean); no
step exceeds 4 GB RAM; the whole batch takes ~2.7 h with zero
failures.  The run is the registry's E5 traced run at ``full`` scale
(``repro.report.scenarios``).
"""

import pytest

from repro.atlas import table1
from repro.report.scenarios import SCENARIOS
from repro.viz import render_table

PAPER_TABLE1 = {
    #                 cpu_mean cpu_max iow_mean iow_max mem_mean mem_max (MB)
    "prefetch":      (21, 70, 3.7, 47, 323, 410),
    "fasterq_dump":  (56, 94, 26, 91, 394, 760),
    "salmon":        (94, 100, 1.5, 90, 840, 2800),
    "deseq2":        (39, 59, 3.4, 47, 532, 1000),
}


@pytest.mark.slow
def test_atlas_table1(benchmark, report, verdict):
    e5 = SCENARIOS["E5"]
    result, tracer = benchmark.pedantic(
        e5.trace, args=("full",), rounds=1, iterations=1
    )
    rows = table1(result.records)

    rendered = render_table(
        [
            "step", "CPU mean", "CPU max", "iowait mean", "iowait max",
            "MEM mean", "MEM max",
        ],
        [
            [
                r.step,
                f"{r.cpu_mean_pct:.0f}% ({PAPER_TABLE1[r.step][0]}%)",
                f"{r.cpu_max_pct:.0f}% ({PAPER_TABLE1[r.step][1]}%)",
                f"{r.iowait_mean_pct:.1f}% ({PAPER_TABLE1[r.step][2]}%)",
                f"{r.iowait_max_pct:.0f}% ({PAPER_TABLE1[r.step][3]}%)",
                f"{r.mem_mean_mb:.0f}MB ({PAPER_TABLE1[r.step][4]}MB)",
                f"{r.mem_max_mb:.0f}MB ({PAPER_TABLE1[r.step][5]}MB)",
            ]
            for r in rows
        ],
    )
    text = (
        "E5 / Table 1: instance-wide metrics per step, cloud run\n"
        "(measured (paper)); 99 files, "
        f"makespan {result.makespan / 3600:.1f} h (paper ~2.7 h), "
        f"{result.failures} failures (paper 0)\n\n" + rendered
    )
    report("E5_table1_metrics", text)

    by_step = {r.step: r for r in rows}
    assert result.failures == 0
    assert len(result.records) == 99
    assert 1.5 <= result.makespan / 3600 <= 4.5       # ~2.7 h
    # Salmon dominates CPU and memory.
    assert by_step["salmon"].cpu_mean_pct == max(r.cpu_mean_pct for r in rows)
    assert by_step["salmon"].cpu_mean_pct > 85
    assert by_step["salmon"].mem_max_mb == max(r.mem_max_mb for r in rows)
    assert 1500 <= by_step["salmon"].mem_max_mb <= 4000  # "2.8GB", under 4 GB
    # fasterq-dump has the worst mean iowait.
    assert by_step["fasterq_dump"].iowait_mean_pct == max(
        r.iowait_mean_pct for r in rows
    )
    assert by_step["fasterq_dump"].iowait_mean_pct > 15
    # prefetch is not CPU-bound.
    assert by_step["prefetch"].cpu_mean_pct < 40
    # No step's memory approaches the 8 GiB instance (4 GB guidance).
    assert all(r.mem_max_mb < 4000 for r in rows)

    rep = verdict(e5.report(e5.scales["full"], True, result, tracer, None))
    assert rep.ok
