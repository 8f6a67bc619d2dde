"""E6 — Table 2: Cloud vs HPC per-step execution times (§5.2.1).

Paper: prefetch is 87% slower on HPC (the cloud downloads from S3 over
the AWS backbone), fasterq-dump 30% faster on HPC, Salmon 19% faster,
DESeq2 no difference; cloud batch ≈ 2.7 h, HPC ≈ 2.5 h, HPC job
efficiency ≈ 72%.
"""

import pytest

from repro.atlas import compare_cloud_hpc, run_experiment
from repro.report.scenarios import SCENARIOS, e6_rules
from repro.viz import render_table

PAPER_VERDICTS = {
    "prefetch": "87% slower",
    "fasterq_dump": "30% faster",
    "salmon": "19% faster",
    "deseq2": "No difference",
}


def run_both():
    e6 = SCENARIOS["E6"]
    cloud = e6.extra("full")
    hpc = run_experiment("hpc", seed=0, **e6.scales["full"])
    return cloud, hpc


@pytest.mark.slow
def test_atlas_table2(benchmark, report, verdict):
    cloud, hpc = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = compare_cloud_hpc(cloud.records, hpc.records)

    rendered = render_table(
        ["step", "cloud mean/max", "HPC mean/max", "HPC verdict", "paper"],
        [
            [
                r.step,
                f"{r.cloud_mean_s / 60:.1f}/{r.cloud_max_s / 60:.1f} min",
                f"{r.hpc_mean_s / 60:.1f}/{r.hpc_max_s / 60:.1f} min",
                r.verdict,
                PAPER_VERDICTS[r.step],
            ]
            for r in rows
        ],
    )
    text = (
        "E6 / Table 2: Cloud vs HPC per-step execution times\n"
        f"cloud makespan {cloud.makespan / 3600:.1f} h (paper ~2.7 h), "
        f"hpc makespan {hpc.makespan / 3600:.1f} h (paper ~2.5 h), "
        f"hpc job efficiency {hpc.job_efficiency() * 100:.0f}% (paper ~72%)\n\n"
        + rendered
    )
    report("E6_table2_cloud_vs_hpc", text)

    by_step = {r.step: r for r in rows}
    # Directions (who wins per step) must match the paper.
    assert 0.5 <= by_step["prefetch"].hpc_relative_diff <= 1.5   # ~87% slower
    assert -0.45 <= by_step["fasterq_dump"].hpc_relative_diff <= -0.15
    assert -0.30 <= by_step["salmon"].hpc_relative_diff <= -0.08
    assert abs(by_step["deseq2"].hpc_relative_diff) < 0.1
    assert "slower" in by_step["prefetch"].verdict
    assert "faster" in by_step["fasterq_dump"].verdict
    assert "faster" in by_step["salmon"].verdict
    assert by_step["deseq2"].verdict == "No difference"
    # Overall: both finish in the same few-hour band; efficiency ~72%.
    assert 0.6 <= hpc.job_efficiency() <= 0.85

    rep = verdict(
        "E6",
        title="Table 2 — cloud vs HPC per-step execution times",
        headline={
            "cloud_makespan_h": cloud.makespan / 3600,
            "hpc_makespan_h": hpc.makespan / 3600,
            "hpc_job_efficiency": hpc.job_efficiency(),
            "prefetch_hpc_rel_diff": by_step["prefetch"].hpc_relative_diff,
            "fasterq_hpc_rel_diff": by_step["fasterq_dump"].hpc_relative_diff,
            "salmon_hpc_rel_diff": by_step["salmon"].hpc_relative_diff,
            "deseq2_hpc_rel_diff": by_step["deseq2"].hpc_relative_diff,
        },
        rules=e6_rules(),
    )
    assert rep.ok
