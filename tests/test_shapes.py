"""Shape-regression suite: the DESIGN.md §5 fidelity targets (E1–E8)
pinned at reduced scale.

Each experiment has a full-scale reproduction under ``benchmarks/``
(the paper-figure runs, the heaviest marked ``slow``); this module
re-asserts the same qualitative shapes on scaled-down instances that
run in seconds, so the default test run catches any refactor that
bends a curve long before the benches are re-run.

Scales and expected shapes:

- E1  CWS makespan reduction (§3.5): rank/filesize beat FIFO by 5–30 %
      on the 5-class mix (one seed instead of three).
- E2  EnTK utilization (Fig 4): ≈90 % core utilization, 85 s bootstrap
      OVH ≈ 1 % of runtime (400 tasks / 400 nodes instead of 7875/8000).
- E3  EnTK concurrency (Fig 5): scheduling ≫ launch throughput,
      executing plateau at nodes/8, full drain.
- E4  EnTK fault tolerance: one node failure ⇒ ~8 task casualties, all
      recovered; 2 numerical failures accepted (bench scale — it is
      already fast).
- E5  Atlas Table 1 (cloud): Salmon dominates CPU+memory, fasterq-dump
      worst iowait, prefetch mostly idle (24 files instead of 99).
- E6  Atlas Table 2 (cloud vs HPC): prefetch slower on HPC, compute
      steps faster, DESeq2 indifferent.
- E7  JAWS fusion (§6.1): fusing the 4-task QC chain cuts shards by
      75 % and time by 55–85 % (8 samples instead of 25).
- E8  LLM-driven Phyloflow (§2.1): 4 steps in order from one sentence,
      coherent JSON phylogeny, error-forwarding recovery.

E4, E7 and E8 run the scenario registry's ``reduced`` rows
(``repro.report.scenarios``), the same campaigns ``python -m
repro.report`` reports on.
"""

import json

import pytest

from repro.atlas import compare_cloud_hpc, run_experiment, table1
from repro.cws.experiment import makespan_experiment, summarize
from repro.entk import TaskState
from repro.report.scenarios import SCENARIOS

from tests.obs.minirun import mini_entk_run


# -- E1: CWS workflow-aware scheduling vs FIFO ---------------------------------


def test_e1_cws_makespan_reduction():
    summary = summarize(makespan_experiment(seeds=(0,)))
    for strategy in ("rank", "filesize"):
        stats = summary["per_strategy"][strategy]
        assert 0.05 <= stats["mean_reduction"] <= 0.30  # paper: avg 10.8%
        assert 0.15 <= stats["max_reduction"] <= 0.40   # paper: up to 25%
        assert stats["wins"] >= stats["n"] * 0.7


# -- E2/E3: EnTK at mini-Frontier scale ----------------------------------------


@pytest.fixture(scope="module")
def entk_mini():
    return mini_entk_run(n_tasks=400, nodes=400, seed=42, trace=True)


def test_e2_entk_utilization_shape(entk_mini):
    prof, tracer = entk_mini
    assert prof.tasks_done == 400
    assert 0.85 <= prof.core_utilization <= 0.95   # paper: 90%
    assert prof.ovh == 85.0                         # paper: 85 s bootstrap
    assert prof.ovh / prof.job_runtime < 0.02       # overhead ≈ 1%
    assert prof.job_runtime == prof.ovh + prof.ttx

    # Fig 4's headline number re-derived purely from the trace.
    q = tracer.query()
    pilot = "entk-pilot-0"
    job = q.spans(category="rm.job", name=pilot)[0]
    util = q.utilization(
        capacity=tracer.metrics.get("cores", component=pilot).capacity,
        weight="cores", category="entk.exec", component=pilot,
        t0=job.start, t1=job.end,
    )
    assert util == prof.core_utilization


def test_e3_entk_concurrency_shape(entk_mini):
    prof, tracer = entk_mini
    # Scheduling outruns launching by the paper's wide margin
    # (269 vs 51 tasks/s at full scale).
    assert prof.scheduling_throughput > 3 * prof.launch_throughput
    # Executing curve plateaus at pilot capacity (nodes / 8-node tasks)
    # and drains to zero.
    assert prof.peak_concurrency == 400 / 8
    assert prof.concurrency_series[1][-1] == 0

    # Both Fig 5 curves re-derived from spans == the live monitors.
    q = tracer.query()
    pilot = "entk-pilot-0"
    job = q.spans(category="rm.job", name=pilot)[0]
    for category, metric in [("entk.exec", "executing"),
                             ("entk.pending", "pending_launch")]:
        derived = q.concurrency(category=category, component=pilot,
                                t0=job.start)
        assert derived.series() == tracer.metrics.get(
            metric, component=pilot
        ).series()


# -- E4: EnTK fault tolerance --------------------------------------------------


def test_e4_fault_tolerance_shape():
    # The registry's reduced E4 scenario: 790 tasks on 800 nodes.
    result, _ = SCENARIOS["E4"].trace("reduced")
    tasks = [t for pl in result.pipelines for t in pl.all_tasks()]

    node_failed = {
        t.name for t in tasks
        for cause in t.failure_causes if "time step" not in str(cause)
    }
    recovered = [t for t in tasks
                 if t.name in node_failed and t.state == TaskState.DONE]
    assert 6 <= len(node_failed) <= 10                # paper: 8 casualties
    assert len(recovered) == len(node_failed)         # all resubmitted OK
    assert {t.name for t in tasks if t.state == TaskState.FAILED} == {
        "constit-diverge-0", "constit-diverge-1"
    }
    assert result.tasks_done() == len(tasks) - 2


# -- E5/E6: Atlas cloud vs HPC -------------------------------------------------


@pytest.fixture(scope="module")
def atlas_cloud():
    return run_experiment("cloud", n_files=24, seed=0, max_instances=8)


def test_e5_table1_step_profile(atlas_cloud):
    result = atlas_cloud
    assert result.failures == 0
    assert len(result.records) == 24
    rows = table1(result.records)
    by_step = {r.step: r for r in rows}
    # Salmon dominates CPU and memory; nothing exceeds 4 GB.
    assert by_step["salmon"].cpu_mean_pct == max(r.cpu_mean_pct for r in rows)
    assert by_step["salmon"].cpu_mean_pct > 85
    assert by_step["salmon"].mem_max_mb == max(r.mem_max_mb for r in rows)
    assert max(r.mem_max_mb for r in rows) < 4096
    # fasterq-dump is IO-bound; prefetch barely computes.
    assert by_step["fasterq_dump"].iowait_mean_pct == max(
        r.iowait_mean_pct for r in rows
    )
    assert by_step["prefetch"].cpu_mean_pct < 40


def test_e6_table2_cloud_vs_hpc(atlas_cloud):
    hpc = run_experiment("hpc", n_files=24, seed=0, slots=8)
    rows = compare_cloud_hpc(atlas_cloud.records, hpc.records)
    by_step = {r.step: r for r in rows}
    # Directions match the paper: download slower on HPC, compute
    # faster, postprocessing indifferent.
    assert by_step["prefetch"].hpc_relative_diff > 0.3
    assert -0.45 <= by_step["fasterq_dump"].hpc_relative_diff <= -0.1
    assert -0.30 <= by_step["salmon"].hpc_relative_diff <= -0.05
    assert abs(by_step["deseq2"].hpc_relative_diff) < 0.1
    assert "slower" in by_step["prefetch"].verdict
    assert "faster" in by_step["fasterq_dump"].verdict
    assert by_step["deseq2"].verdict == "No difference"


# -- E7: JAWS task fusion ------------------------------------------------------


def test_e7_jaws_fusion_shape():
    # The registry's reduced E7 scenario: 8 samples on 32 nodes.
    e7 = SCENARIOS["E7"]
    baseline = e7.extra("reduced")
    (fused, fusions), _ = e7.trace("reduced")

    assert list(fusions.values())[0] == ["qc", "trim", "align", "stats"]
    shard_cut = 1 - fused.shard_count / baseline.shard_count
    time_cut = 1 - fused.makespan / baseline.makespan
    assert shard_cut == 0.75                 # paper: 71%
    assert 0.55 <= time_cut <= 0.85          # paper: 70%


# -- E8: LLM function-calling drives Phyloflow ---------------------------------


def test_e8_llm_phyloflow_shape():
    # The registry's reduced E8 scenario: 90 mutations, 3 planted clones.
    e8 = SCENARIOS["E8"]
    (result, tree), _ = e8.trace("reduced")

    assert result.calls_made() == [
        "vcf_transform_from_file",
        "pyclone_vi_from_futures",
        "spruce_format_from_futures",
        "spruce_phylogeny_from_futures",
    ]
    assert result.stopped and not result.errors
    # The phylogeny is coherent, JSON-serializable output.
    assert tree["n_clones"] == 3
    assert tree["confidence"] > 0.5
    assert len(tree["edges"]) == 2
    assert json.loads(json.dumps(tree))["n_clones"] == 3

    # Error forwarding: one injected failure, pipeline still completes.
    recovery, tree2 = e8.extra("reduced")
    assert len(recovery.errors) == 1
    assert recovery.calls_made().count("pyclone_vi_from_futures") == 2
    assert tree2["n_clones"] == 3
