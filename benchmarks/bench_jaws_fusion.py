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

from repro.report.scenarios import SCENARIOS
from repro.viz import render_table


def test_jaws_task_fusion(benchmark, report, verdict):
    e7 = SCENARIOS["E7"]
    baseline, (outcome, tracer) = benchmark.pedantic(
        lambda: (e7.extra("full"), e7.trace("full")), rounds=1, iterations=1
    )
    fused, fusions = outcome
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

    # The E7 rules' critical rules are weaker forms of the asserts above.
    rep = verdict(e7.report(e7.scales["full"], True, outcome, tracer, baseline))
    assert rep.ok
