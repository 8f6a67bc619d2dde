"""Regenerate every paper experiment in one run (no pytest needed).

Prints the paper-vs-measured summary for E1-E8.  The campaigns come
from the E1-E8 scenario registry (``repro.report.scenarios``), the same
one the benchmark harness (``pytest benchmarks/ --benchmark-only``) and
``python -m repro.report`` run, so the three can never drift.

Run: ``python examples/paper_reproduction.py [--quick]``
``--quick`` runs the registry's ``reduced`` scale (a few seconds)
instead of the paper-scale ``full`` rows (~15 s).
"""

import sys

from repro.atlas import compare_cloud_hpc, table1
from repro.cws.experiment import summarize
from repro.report.scenarios import SCENARIOS


def hr(title: str) -> None:
    print("\n" + "=" * 70)
    print(title)
    print("=" * 70)


def main(quick: bool = False) -> None:
    scale = "reduced" if quick else "full"

    hr("E1 — CWS makespan reduction (paper: avg 10.8%, max 25%)")
    summary = summarize(SCENARIOS["E1"].extra(scale))
    for strategy, stats in summary["per_strategy"].items():
        print(f"  {strategy:<9} mean {stats['mean_reduction'] * 100:5.1f}%  "
              f"max {stats['max_reduction'] * 100:5.1f}%  "
              f"wins {stats['wins']}/{stats['n']}")

    hr("E2/E3 — EnTK on Frontier (paper: 90% util, OVH 85s, 269/51 tasks/s)")
    result, _ = SCENARIOS["E2"].trace(scale)
    for line in result.profiles[0].summary_lines():
        print("  " + line)

    hr("E4 — fault tolerance (paper: 8 node-failure casualties recovered, 2 numerical)")
    result, _ = SCENARIOS["E4"].trace(scale)
    tasks = [t for pl in result.pipelines for t in pl.all_tasks()]
    causes = [(t.name, c) for t in tasks for c in t.failure_causes]
    node_failed = {n for n, c in causes
                   if "dead-node" in str(c) or "frontier" in str(c)}
    numerical = {n for n, c in causes if "time step" in str(c)}
    print(f"  tasks killed by the node failure: {len(node_failed)} (recovered)")
    print(f"  numerical failures: {len(numerical)} (accepted)")
    print(f"  completed: {result.tasks_done()}/{len(tasks)}")

    hr("E5 — Table 1 (cloud instance metrics)")
    cloud, _ = SCENARIOS["E5"].trace(scale)
    for row in table1(cloud.records):
        print("  " + row.format())

    hr("E6 — Table 2 (cloud vs HPC)")
    hpc, _ = SCENARIOS["E6"].trace(scale)
    cloud2 = SCENARIOS["E6"].extra(scale)
    for row in compare_cloud_hpc(cloud2.records, hpc.records):
        print("  " + row.format())
    print(f"  hpc job efficiency: {hpc.job_efficiency() * 100:.0f}% (paper ~72%)")

    hr("E7 — task fusion (paper: -70% time, -71% shards)")
    baseline = SCENARIOS["E7"].extra(scale)
    (fused, fusions), _ = SCENARIOS["E7"].trace(scale)
    print(f"  fused: {list(fusions.values())[0]}")
    print(f"  shards {baseline.shard_count} -> {fused.shard_count} "
          f"({(1 - fused.shard_count / baseline.shard_count) * -100:.0f}%)")
    print(f"  time {baseline.makespan / 60:.0f} -> {fused.makespan / 60:.0f} min "
          f"({(1 - fused.makespan / baseline.makespan) * -100:.0f}%)")

    hr("E8 — NL-driven Phyloflow via function calling")
    (result8, tree), _ = SCENARIOS["E8"].trace(scale)
    recovery, tree2 = SCENARIOS["E8"].extra(scale)
    print(f"  calls: {' -> '.join(n.split('_from')[0] for n in result8.calls_made())}")
    print(f"  clones recovered: {tree['n_clones']} (planted 3), "
          f"confidence {tree['confidence']:.2f}")
    print(f"  error-forwarding run: {len(recovery.errors)} forwarded error, "
          f"completed with {tree2['n_clones']} clones")

    print("\nAll experiments regenerated.  Full tables: "
          "pytest benchmarks/ --benchmark-only && cat benchmarks/results/*.txt")


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
