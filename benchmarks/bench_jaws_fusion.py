"""E7 — JGI task fusion (§6.1).

Paper: "in one of JGI's workflows, by integrating four separate tasks
into a single task, we cut the execution time by 70% and decreased the
number of shards by 71%."

The registry's E7 scenario (``repro.report.scenarios``, ``full`` scale)
builds a JGI-like workflow — a scatter over 25 samples, each running
a 4-task QC chain — on a cost model where per-shard overhead
(container start + file staging on a strained shared filesystem)
dominates short tasks.  Fusing the chain removes three of the four
per-sample overheads and 75% of the shards.
"""

from repro.report.scenarios import SCENARIOS, e7_rules
from repro.viz import render_table


def test_jaws_task_fusion(benchmark, report, verdict):
    e7 = SCENARIOS["E7"]
    baseline, ((fused, fusions), _) = benchmark.pedantic(
        lambda: (e7.extra("full"), e7.trace("full")), rounds=1, iterations=1
    )
    # Per-sample critical path: 4 sequential shards vs 1 fused shard.
    time_cut = 1 - fused.makespan / baseline.makespan
    shard_cut = 1 - fused.shard_count / baseline.shard_count

    table = render_table(
        ["metric", "paper", "measured"],
        [
            ["tasks fused", "4 -> 1", f"{len(list(fusions.values())[0])} -> 1"],
            ["shards", "-71%", f"{baseline.shard_count} -> {fused.shard_count} "
                               f"(-{shard_cut * 100:.0f}%)"],
            ["execution time", "-70%", f"{baseline.makespan / 60:.0f} -> "
                                       f"{fused.makespan / 60:.0f} min "
                                       f"(-{time_cut * 100:.0f}%)"],
        ],
    )
    report("E7_task_fusion", "E7: fusing the 4-task QC chain\n\n" + table)

    assert list(fusions.values())[0] == ["qc", "trim", "align", "stats"]
    assert shard_cut == 0.75                      # paper: 71%
    assert 0.55 <= time_cut <= 0.85               # paper: 70%

    # e7_rules' critical rules are weaker forms of the asserts above.
    verdict(
        "E7",
        title="JGI task fusion: 4-task QC chain -> 1",
        headline={
            "baseline_makespan_s": baseline.makespan,
            "fused_makespan_s": fused.makespan,
            "time_cut": time_cut,
            "baseline_shards": baseline.shard_count,
            "fused_shards": fused.shard_count,
            "shard_cut": shard_cut,
        },
        rules=e7_rules(),
    )
