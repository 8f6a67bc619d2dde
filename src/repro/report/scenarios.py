"""The E1–E8 scenario registry: every paper campaign is built here, once.

Each :class:`Scenario` splits its campaign into two parts:

* **the traced run** — the one simulated run a golden digest pins
  (E1: the largest workflow of the mix under ``rank``; E2–E4: the
  EnTK UQ Stage 3 pilot; E5: the ATLAS cloud run; E6: the ATLAS HPC
  run; E7: the fused JGI QC chain; E8: the first Phyloflow driver
  run, which has no discrete-event trace);
* **the report's extras** — untraced runs only the report compares
  against (E1's ``makespan_experiment`` over the mix, E6's cloud run,
  E7's unfused baseline, E8's error-recovery run).

Both read one parameter row from the scenario's ``scales`` table:

``golden``
    Sub-second traced runs whose exported text (:func:`golden_trace`)
    is byte-pinned in ``trace_digests.json`` next to this module, by
    ``tests/golden/``, ``python -m repro.sanitizer`` and
    ``python -m repro.ckpt``-style determinism checks.
``reduced``
    The seconds-long default of ``python -m repro.report --bench EX``.
``full``
    The paper-scale parameters the ``benchmarks/bench_*.py`` suite
    runs (``--full`` on the report CLI).

:func:`run_scenario` packages a run as a :class:`~repro.report.RunReport`
with the scenario's SLO rules.  The rule sets are the benchmarks' shape
assertions restated as SLOs: a ``critical`` rule firing at the end of
the run fails the report (and the CI smoke job); ``warning`` rules flag
paper-number drift without failing anything.

Domain packages are imported inside each builder, so importing a rule
set (``e2_rules``) loads nothing beyond the report layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.obs import enable_tracing
from repro.obs.alerts import Rule
from repro.report import RunReport, build_report
from repro.simkernel import Environment

#: The pinned SHA-256 digests of every scenario's :func:`golden_trace`.
DIGESTS_FILE = os.path.join(os.path.dirname(__file__), "trace_digests.json")


@dataclass(frozen=True)
class Scenario:
    """One paper campaign: its traced run, its extras and its scales."""

    bench_id: str
    title: str
    #: One keyword row per scale: ``golden``, ``reduced`` and ``full``.
    scales: dict
    #: ``traced(**row) -> (outcome, tracer)``; ``tracer`` is ``None``
    #: for a run without a discrete-event trace.
    traced: Callable[..., tuple]
    #: ``report(row, full, outcome, tracer, extra, stream) -> RunReport``.
    report: Callable[..., RunReport]
    #: ``extras(**row)``: the untraced run only the report needs.
    extras: Optional[Callable[..., Any]] = None
    #: ``canonical(outcome) -> str``: the pinned text of an untraced run.
    canonical: Optional[Callable[[Any], str]] = None

    def trace(self, scale: str = "golden") -> tuple:
        """The traced run at ``scale``: ``(outcome, tracer)``."""
        return self.traced(**self.scales[scale])

    def extra(self, scale: str) -> Any:
        """The report's extra run at ``scale`` (``None`` if it has none)."""
        return self.extras(**self.scales[scale]) if self.extras else None

    def run(self, full: bool = False, stream: bool = False) -> RunReport:
        scale = "full" if full else "reduced"
        extra = self.extra(scale)
        outcome, tracer = self.trace(scale)
        return self.report(self.scales[scale], full, outcome, tracer, extra, stream)


# -- SLO rule sets ---------------------------------------------------------------
#
# The benchmarks' shape assertions restated as alert rules, shared
# between the scenario builders here and the bench_*.py suite (which
# runs the same experiments at paper scale and attaches the same rules
# to its verdicts).


def e1_rules() -> list:
    return [
        Rule("rank_mean_reduction >= 0.05", severity="critical", name="rank-wins"),
        Rule(
            "filesize_mean_reduction >= 0.05",
            severity="critical",
            name="filesize-wins",
        ),
        Rule("rank_mean_reduction <= 0.30", severity="warning", name="paper-band"),
    ]


def e2_rules(nodes: int) -> list:
    return [
        Rule("ovh_s <= 100", severity="critical", name="bootstrap-overhead"),
        Rule("core_utilization >= 0.85", severity="critical", name="utilization"),
        Rule("failed_tasks <= 0", severity="critical", name="no-failures"),
        Rule(
            f"series(entk-pilot-0/executing) <= {nodes // 8}",
            severity="critical",
            name="capacity-respected",
        ),
        Rule("p99(entk.exec) <= 1800", severity="warning", name="exec-p99"),
    ]


def e3_rules(nodes: int) -> list:
    return [
        Rule(
            "scheduling_throughput >= 100",
            severity="critical",
            name="scheduling-rate",
        ),
        Rule("launch_throughput >= 30", severity="critical", name="launch-rate"),
        Rule(
            f"peak_concurrency <= {nodes // 8}",
            severity="critical",
            name="plateau-at-capacity",
        ),
        Rule("scheduling_throughput <= 280", severity="warning", name="paper-269"),
        Rule("launch_throughput <= 60", severity="warning", name="paper-51"),
    ]


def e4_rules(n_tasks: int) -> list:
    return [
        # Node-failure casualties all recover; only the two numerical
        # failures stay failed, so done = submitted - 2.
        Rule(
            f"tasks_done >= {n_tasks - 2}",
            severity="critical",
            name="recovery-complete",
        ),
        Rule("permanently_failed <= 2", severity="critical", name="accepted-losses"),
        # Paper: 10 failure events (8 node + 2 numerical); retries of
        # the numerical tasks add a few more attempts.
        Rule(
            "task_failure_events <= 16", severity="warning", name="failure-events"
        ),
    ]


def e5_rules() -> list:
    return [
        Rule("failures <= 0", severity="critical", name="zero-failures"),
        Rule(
            "salmon_cpu_mean_pct >= 85",
            severity="critical",
            name="salmon-cpu-bound",
        ),
        Rule("salmon_mem_max_mb <= 4000", severity="critical", name="fits-in-ram"),
        Rule(
            "fasterq_iowait_mean_pct >= 15",
            severity="warning",
            name="fasterq-io-bound",
        ),
    ]


def e6_rules() -> list:
    return [
        # The paper's per-step directions: prefetch slower on HPC, the
        # compute steps faster or equal.
        Rule(
            "prefetch_hpc_rel_diff >= 0.3",
            severity="critical",
            name="prefetch-slower-on-hpc",
        ),
        Rule(
            "fasterq_hpc_rel_diff <= -0.1",
            severity="critical",
            name="fasterq-faster-on-hpc",
        ),
        Rule(
            "salmon_hpc_rel_diff <= -0.05",
            severity="critical",
            name="salmon-faster-on-hpc",
        ),
        Rule("hpc_job_efficiency >= 0.6", severity="warning", name="efficiency-72"),
    ]


def e7_rules() -> list:
    return [
        Rule("shard_cut >= 0.7", severity="critical", name="shards-cut"),
        Rule("time_cut >= 0.5", severity="critical", name="time-cut"),
        Rule("time_cut <= 0.85", severity="warning", name="paper-70pct"),
    ]


def e8_rules() -> list:
    return [
        Rule("steps_in_order >= 1", severity="critical", name="pipeline-order"),
        Rule("api_calls <= 5", severity="critical", name="one-call-per-step"),
        Rule("n_clones >= 3", severity="critical", name="clones-recovered"),
        Rule("confidence >= 0.5", severity="critical", name="phylogeny-confident"),
        Rule("recovered_n_clones >= 3", severity="critical", name="error-recovery"),
    ]


def _traced_env() -> tuple:
    env = Environment()
    return env, enable_tracing(env)


# -- E1: CWS workflow-aware scheduling -------------------------------------------


def _e1_traced(seeds):
    from repro.cws.experiment import run_workflow_once
    from repro.workloads import workflow_mix

    env, tracer = _traced_env()
    wf = max(workflow_mix(seed=seeds[0]), key=lambda w: len(w.graph))
    return (wf, run_workflow_once(wf, "rank", env=env)), tracer


def _e1_extras(seeds):
    from repro.cws.experiment import makespan_experiment

    return makespan_experiment(seeds=seeds)


def _e1_report(row, full, outcome, tracer, rows, stream) -> RunReport:
    from repro.cws.experiment import summarize

    wf, makespan = outcome
    summary = summarize(rows)
    headline = {
        f"{strategy}_mean_reduction": stats["mean_reduction"]
        for strategy, stats in summary["per_strategy"].items()
    }
    headline.update(
        {
            f"{strategy}_max_reduction": stats["max_reduction"]
            for strategy, stats in summary["per_strategy"].items()
        }
    )
    headline["traced_workflow_makespan_s"] = makespan
    return build_report(
        "E1",
        tracer,
        title="CWS workflow-aware scheduling vs FIFO",
        headline=headline,
        rules=e1_rules(),
        notes=[
            f"mix x strategies over seeds {row['seeds']}; trace: "
            f"{wf.name!r} under 'rank'",
            "paper: avg 10.8% makespan reduction, up to 25%",
        ],
        stream=stream,
    )


# -- E2/E3/E4: EnTK UQ Stage 3 on the simulated Frontier -------------------------


def numerical_failure_task(name: str, duration: float):
    """An ExaConstit task whose last simulation step always diverges."""
    from repro.entk import EnTask

    def work(env, task, nodes):
        yield env.timeout(duration * 0.95)
        raise RuntimeError("time step too large for this loading condition and RVE")

    return EnTask(work=work, nodes=8, cores_per_node=56, gpus_per_node=8, name=name)


def _stage3_run(
    n_tasks: int,
    nodes: int,
    seed: int = 42,
    agent=None,
    extra_tasks=(),
    fault_at: Optional[float] = None,
):
    from repro.entk import (
        AppManager,
        Pipeline,
        ResourceDescription,
        Stage,
    )
    from repro.entk.platforms import platform_cluster
    from repro.exaam import frontier_stage3_tasks
    from repro.rm import BatchScheduler

    env, tracer = _traced_env()
    cluster = platform_cluster(env, "frontier", nodes=nodes)
    batch = BatchScheduler(env, cluster, backfill=False)
    rd_kwargs = {"nodes": nodes, "walltime_s": 24 * 3600}
    if agent is not None:
        rd_kwargs.update(agent=agent, max_jobs=1)
    am = AppManager(env, batch, ResourceDescription(**rd_kwargs))
    tasks = frontier_stage3_tasks(
        n_tasks - len(extra_tasks), rng=np.random.default_rng(seed)
    )
    tasks += list(extra_tasks)
    pipeline = Pipeline(name="uq-stage3")
    stage = Stage(name="exaconstit")
    stage.add_tasks(tasks)
    pipeline.add_stage(stage)
    result = am.run([pipeline])
    if fault_at is not None:
        from repro.cluster import FaultInjector

        victim = cluster.nodes[nodes // 2].id
        FaultInjector(env, cluster, schedule=[(fault_at, victim)], downtime=None)
    env.run(until=result.done)
    return result, tracer


def _e2_report(row, full, result, tracer, _extra, stream) -> RunReport:
    n_tasks, nodes = row["n_tasks"], row["nodes"]
    prof = result.profiles[0]
    headline = {
        "tasks_done": prof.tasks_done,
        "core_utilization": prof.core_utilization,
        "gpu_utilization": prof.gpu_utilization,
        "ovh_s": prof.ovh,
        "ttx_s": prof.ttx,
        "job_runtime_s": prof.job_runtime,
    }
    return build_report(
        "E2",
        tracer,
        title="Fig 4 — EnTK resource utilization on Frontier",
        headline=headline,
        rules=e2_rules(nodes),
        component="entk-pilot-0",
        straggler_category="entk.exec",
        idle_metric=("entk-pilot-0", "cores"),
        notes=[
            f"{n_tasks} tasks on {nodes} nodes"
            + ("" if full else " (reduced scale; paper: 7875/8000)"),
            "paper: utilization 90%, OVH 85 s, OVH/runtime ~1%",
        ],
        stream=stream,
    )


def _e3_report(row, full, result, tracer, _extra, stream) -> RunReport:
    nodes = row["nodes"]
    prof = result.profiles[0]
    headline = {
        "scheduling_throughput": prof.scheduling_throughput,
        "launch_throughput": prof.launch_throughput,
        "peak_concurrency": prof.peak_concurrency,
        "tasks_done": prof.tasks_done,
    }
    return build_report(
        "E3",
        tracer,
        title="Fig 5 — EnTK task-state concurrency curves",
        headline=headline,
        rules=e3_rules(nodes),
        component="entk-pilot-0",
        straggler_category="entk.exec",
        notes=[
            "paper: scheduling 269 tasks/s, launching 51 tasks/s, "
            f"plateau at {nodes // 8} concurrent tasks",
        ],
        stream=stream,
    )


def _e4_traced(n_tasks, nodes, diverging):
    from repro.entk import AgentConfig

    # Delayed failure propagation: the agent keeps handing the dead node
    # out until it collects 8 strikes, one failed task each.
    agent = AgentConfig(node_strikes=8, fail_detect_s=15.0, max_task_retries=2)
    extra = [numerical_failure_task(name, at) for name, at in diverging]
    return _stage3_run(
        n_tasks, nodes, agent=agent, extra_tasks=extra, fault_at=2000.0
    )


def _e4_report(row, full, result, tracer, _extra, stream) -> RunReport:
    from repro.entk import TaskState

    prof = result.profiles[0]
    permanently_failed = [
        t
        for pl in result.pipelines
        for t in pl.all_tasks()
        if t.state == TaskState.FAILED
    ]
    headline = {
        "tasks_done": result.tasks_done(),
        "task_failure_events": prof.tasks_failed_events,
        "permanently_failed": len(permanently_failed),
    }
    return build_report(
        "E4",
        tracer,
        title="EnTK fault tolerance under a node failure",
        headline=headline,
        rules=e4_rules(row["n_tasks"]),
        component="entk-pilot-0",
        straggler_category="entk.exec",
        notes=[
            "one node killed at t=2000 s with delayed detection; "
            "paper: 8 tasks killed and resubmitted OK, 2 numerical failures",
        ],
        stream=stream,
    )


# -- E5/E6: ATLAS sequencing pipeline, cloud vs HPC ------------------------------


def _e5_traced(n_files, max_instances):
    from repro.atlas import run_experiment

    env, tracer = _traced_env()
    result = run_experiment(
        "cloud", n_files=n_files, seed=0, max_instances=max_instances, env=env
    )
    return result, tracer


def _e5_report(row, full, result, tracer, _extra, stream) -> RunReport:
    from repro.atlas import table1

    n_files = row["n_files"]
    by_step = {r.step: r for r in table1(result.records)}
    headline = {
        "files": len(result.records),
        "failures": result.failures,
        "makespan_h": result.makespan / 3600,
        "salmon_cpu_mean_pct": by_step["salmon"].cpu_mean_pct,
        "salmon_mem_max_mb": by_step["salmon"].mem_max_mb,
        "fasterq_iowait_mean_pct": by_step["fasterq_dump"].iowait_mean_pct,
    }
    return build_report(
        "E5",
        tracer,
        title="Table 1 — per-step instance metrics, cloud run",
        headline=headline,
        rules=e5_rules(),
        straggler_category="atlas.step",
        notes=[
            f"{n_files} SRA files"
            + ("" if full else " (reduced scale; paper: 99)"),
            "paper: Salmon CPU 94%/100%, fasterq-dump iowait 26% mean, "
            "batch ~2.7 h, 0 failures",
        ],
        stream=stream,
    )


def _e6_traced(n_files, slots):
    from repro.atlas import run_experiment

    env, tracer = _traced_env()
    return run_experiment("hpc", n_files=n_files, seed=0, slots=slots, env=env), tracer


def _e6_extras(n_files, slots):
    from repro.atlas import run_experiment

    # The cloud side gets as many instances as the HPC side has slots.
    return run_experiment("cloud", n_files=n_files, seed=0, max_instances=slots)


def _e6_report(row, full, hpc, tracer, cloud, stream) -> RunReport:
    from repro.atlas import compare_cloud_hpc

    by_step = {r.step: r for r in compare_cloud_hpc(cloud.records, hpc.records)}
    headline = {
        "cloud_makespan_h": cloud.makespan / 3600,
        "hpc_makespan_h": hpc.makespan / 3600,
        "hpc_job_efficiency": hpc.job_efficiency(),
        "prefetch_hpc_rel_diff": by_step["prefetch"].hpc_relative_diff,
        "fasterq_hpc_rel_diff": by_step["fasterq_dump"].hpc_relative_diff,
        "salmon_hpc_rel_diff": by_step["salmon"].hpc_relative_diff,
        "deseq2_hpc_rel_diff": by_step["deseq2"].hpc_relative_diff,
    }
    return build_report(
        "E6",
        tracer,
        title="Table 2 — cloud vs HPC per-step execution times",
        headline=headline,
        rules=e6_rules(),
        straggler_category="atlas.step",
        notes=[
            f"{row['n_files']} files per environment; trace covers the HPC run",
            "paper: prefetch 87% slower on HPC, fasterq 30% / salmon 19% "
            "faster, DESeq2 no difference",
        ],
        stream=stream,
    )


# -- E7: JAWS task fusion --------------------------------------------------------

#: The JGI per-sample QC chain, in chain order: task -> (output name,
#: output file, cpu, runtime minutes, container image).
JGI_TASKS = {
    "qc": ("cleaned", "cleaned.fq", 2, 1, "jgi/qc@sha256:aa"),
    "trim": ("trimmed", "trimmed.fq", 2, 1, "jgi/qc@sha256:aa"),
    "align": ("bam", "out.bam", 4, 2, "jgi/align@sha256:bb"),
    "stats": ("report", "stats.txt", 1, 1, "jgi/qc@sha256:aa"),
}


def jgi_wdl(samples: int, chain=tuple(JGI_TASKS)) -> str:
    """WDL for a scatter over ``samples`` reads files, each running the
    ``chain`` of :data:`JGI_TASKS`, every task consuming its
    predecessor's output."""
    tasks, calls = [], []
    source, ref = "reads", "s"
    for name in chain:
        output, path, cpu, minutes, image = JGI_TASKS[name]
        tasks.append(
            f"task {name} {{\n"
            f"    input {{ File {source} }}\n"
            f"    command <<< run_{name} >>>\n"
            f'    output {{ File {output} = "{path}" }}\n'
            f"    runtime {{ cpu: {cpu}, runtime_minutes: {minutes}, "
            f'docker: "{image}" }}\n'
            "}\n"
        )
        calls.append(f"        call {name} {{ input: {source} = {ref} }}\n")
        source, ref = output, f"{name}.{output}"
    names = ", ".join(f'"s{i}.fq"' for i in range(samples))
    return (
        "version 1.0\n"
        + "".join(tasks)
        + "workflow sample_qc {\n"
        + f"    input {{ Array[File] samples = [{names}] }}\n"
        + "    scatter (s in samples) {\n"
        + "".join(calls)
        + "    }\n}\n"
    )


def _jgi_run(doc, nodes: int, env=None):
    """Run a parsed JGI workflow on ``nodes`` 16-core nodes under the
    overhead-dominated cost model of the JGI anecdote: shared-filesystem
    staging costs far more than the 1-2 minute tools."""
    from repro.cluster import Cluster, NodeSpec
    from repro.jaws import CromwellEngine, EngineOptions
    from repro.rm import BatchScheduler

    env = env if env is not None else Environment()
    cluster = Cluster(env, pools=[(NodeSpec("c", cores=16, memory_gb=128), nodes)])
    options = EngineOptions(container_start_s=45.0, stage_overhead_s=420.0)
    engine = CromwellEngine(env, BatchScheduler(env, cluster), options)
    result = engine.run(doc)
    env.run(until=result.done)
    if not result.succeeded:
        raise RuntimeError(f"JGI workflow failed: {result.error}")
    return result


def _e7_traced(samples, chain, nodes):
    from repro.jaws import fuse_linear_chains, parse_wdl

    doc, fusions = fuse_linear_chains(parse_wdl(jgi_wdl(samples, chain)))
    env, tracer = _traced_env()
    return (_jgi_run(doc, nodes, env=env), fusions), tracer


def _e7_extras(samples, chain, nodes):
    from repro.jaws import parse_wdl

    return _jgi_run(parse_wdl(jgi_wdl(samples, chain)), nodes)


def _e7_report(row, full, outcome, tracer, baseline, stream) -> RunReport:
    fused, fusions = outcome
    samples = row["samples"]
    time_cut = 1 - fused.makespan / baseline.makespan
    shard_cut = 1 - fused.shard_count / baseline.shard_count
    headline = {
        "baseline_makespan_s": baseline.makespan,
        "fused_makespan_s": fused.makespan,
        "time_cut": time_cut,
        "baseline_shards": baseline.shard_count,
        "fused_shards": fused.shard_count,
        "shard_cut": shard_cut,
        "chain_length": len(list(fusions.values())[0]),
    }
    return build_report(
        "E7",
        tracer,
        title="JGI task fusion: 4-task QC chain -> 1",
        headline=headline,
        rules=e7_rules(),
        straggler_category="jaws.call",
        notes=[
            f"{samples}-sample scatter"
            + ("" if full else " (reduced scale; paper anecdote: 25)"),
            "trace covers the fused run; paper: -70% time, -71% shards",
        ],
        stream=stream,
    )


# -- E8: LLM-driven Phyloflow (no discrete-event trace) --------------------------

PHYLOFLOW_INSTRUCTION = (
    "Run the full phyloflow pipeline on tumor.vcf: transform the VCF, "
    "cluster the mutations into 3 clusters, and build the phylogeny."
)

PHYLOFLOW_STEPS = [
    "vcf_transform_from_file",
    "pyclone_vi_from_futures",
    "spruce_format_from_futures",
    "spruce_phylogeny_from_futures",
]


def _phyloflow(n_mutations: int, inject_failure: bool = False) -> tuple:
    """One driver run from the instruction; ``(result, final tree)``."""
    from repro.llm import (
        ChatWorkflowDriver,
        MockFunctionCallingLLM,
        PhyloflowAdapters,
        make_synthetic_vcf,
    )

    vcf = make_synthetic_vcf(n_mutations=n_mutations, n_clones=3, depth=500, seed=11)
    adapters = PhyloflowAdapters(files={"tumor.vcf": vcf})
    if inject_failure:
        adapters.inject_failure("pyclone_vi_from_futures", times=1)
    driver = ChatWorkflowDriver(MockFunctionCallingLLM(), adapters)
    result = driver.run(PHYLOFLOW_INSTRUCTION)
    return result, driver.final_value(result)


def _e8_traced(n_mutations):
    return _phyloflow(n_mutations), None


def _e8_extras(n_mutations):
    # One injected transient failure the driver must forward and retry.
    return _phyloflow(n_mutations, inject_failure=True)


def _e8_canonical(outcome) -> str:
    import json

    result, tree = outcome
    doc = {
        "calls_made": result.calls_made(),
        "api_calls": result.api_calls,
        "n_clones": tree["n_clones"],
        "confidence": round(float(tree["confidence"]), 12),
        "edges": sorted(map(list, tree["edges"])),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _e8_report(row, full, outcome, tracer, recovery_run, stream) -> RunReport:
    result, tree = outcome
    recovery, tree2 = recovery_run
    headline = {
        "api_calls": result.api_calls,
        "steps_in_order": int(result.calls_made() == PHYLOFLOW_STEPS),
        "futures_registered": len(result.future_ids),
        "n_clones": tree["n_clones"],
        "confidence": tree["confidence"],
        "errors_forwarded": len(recovery.errors),
        "recovered_n_clones": tree2["n_clones"],
    }
    # No simulated environment here: the LLM loop is synchronous, so
    # the report is metrics-only (rules evaluate on the scalars).
    return build_report(
        "E8",
        tracer=None,
        title="NL-driven Phyloflow execution via function calling",
        headline=headline,
        rules=e8_rules(),
        notes=["no discrete-event trace; scalar SLOs only"],
        stream=stream,
    )


#: Frontier UQ Stage 3 rows shared by E2 and E3 above the golden scale.
_STAGE3_REDUCED = {"n_tasks": 400, "nodes": 400}
_STAGE3_FULL = {"n_tasks": 7875, "nodes": 8000}
#: E4 runs the benchmark's 1/10-scale scenario at both report scales.
_E4_TENTH = {
    "n_tasks": 790,
    "nodes": 800,
    "diverging": (("constit-diverge-0", 900.0), ("constit-diverge-1", 1100.0)),
}

SCENARIOS = {
    "E1": Scenario(
        "E1",
        "CWS makespan reduction (§3.5)",
        scales={
            "golden": {"seeds": (0,)},
            "reduced": {"seeds": (0,)},
            "full": {"seeds": (0, 1, 2)},
        },
        traced=_e1_traced,
        extras=_e1_extras,
        report=_e1_report,
    ),
    "E2": Scenario(
        "E2",
        "EnTK utilization (§4.3, Fig 4)",
        scales={
            "golden": {"n_tasks": 120, "nodes": 120},
            "reduced": _STAGE3_REDUCED,
            "full": _STAGE3_FULL,
        },
        traced=_stage3_run,
        report=_e2_report,
    ),
    "E3": Scenario(
        "E3",
        "EnTK concurrency (§4.3, Fig 5)",
        scales={
            "golden": {"n_tasks": 160, "nodes": 80},
            "reduced": _STAGE3_REDUCED,
            "full": _STAGE3_FULL,
        },
        traced=_stage3_run,
        report=_e3_report,
    ),
    "E4": Scenario(
        "E4",
        "EnTK fault tolerance (§4.3)",
        scales={
            "golden": {
                "n_tasks": 100,
                "nodes": 104,
                "diverging": (("diverge-0", 900.0),),
            },
            "reduced": _E4_TENTH,
            "full": _E4_TENTH,
        },
        traced=_e4_traced,
        report=_e4_report,
    ),
    "E5": Scenario(
        "E5",
        "ATLAS cloud metrics (§5.2.1, Table 1)",
        scales={
            "golden": {"n_files": 8, "max_instances": 4},
            "reduced": {"n_files": 24, "max_instances": 12},
            "full": {"n_files": 99, "max_instances": 12},
        },
        traced=_e5_traced,
        report=_e5_report,
    ),
    "E6": Scenario(
        "E6",
        "ATLAS cloud vs HPC (§5.2.1, Table 2)",
        scales={
            "golden": {"n_files": 8, "slots": 4},
            "reduced": {"n_files": 24, "slots": 12},
            "full": {"n_files": 99, "slots": 12},
        },
        traced=_e6_traced,
        extras=_e6_extras,
        report=_e6_report,
    ),
    "E7": Scenario(
        "E7",
        "JAWS task fusion (§6.1)",
        scales={
            "golden": {"samples": 4, "chain": ("qc", "align"), "nodes": 16},
            "reduced": {"samples": 8, "chain": tuple(JGI_TASKS), "nodes": 32},
            "full": {"samples": 25, "chain": tuple(JGI_TASKS), "nodes": 32},
        },
        traced=_e7_traced,
        extras=_e7_extras,
        report=_e7_report,
    ),
    "E8": Scenario(
        "E8",
        "LLM Phyloflow (§2.1)",
        scales={
            "golden": {"n_mutations": 60},
            "reduced": {"n_mutations": 90},
            "full": {"n_mutations": 90},
        },
        traced=_e8_traced,
        extras=_e8_extras,
        report=_e8_report,
        canonical=_e8_canonical,
    ),
}


def scenario_id(bench_id: str) -> str:
    """The registry key for ``bench_id``, matched case-insensitively.

    Raises :class:`KeyError` whose message names the valid ids.
    """
    key = bench_id.strip().upper()
    if key not in SCENARIOS:
        raise KeyError(
            f"unknown benchmark {bench_id!r}; choose from "
            f"{', '.join(sorted(SCENARIOS))}"
        )
    return key


def run_scenario(
    bench_id: str, full: bool = False, stream: bool = False
) -> RunReport:
    """Run one named scenario and return its report.

    ``stream=True`` routes the analyses through the constant-memory
    :class:`~repro.obs.stream.StubTrace` pass; verdicts are identical
    to the batch path (asserted in ``tests/report/test_stream_mode.py``).
    """
    return SCENARIOS[scenario_id(bench_id)].run(full=full, stream=stream)


def golden_trace(bench_id: str) -> str:
    """The text a golden digest pins: the traced run at ``golden`` scale,
    exported as JSONL with metrics (E8: the canonical JSON of its run)."""
    from repro.obs import to_jsonl

    scenario = SCENARIOS[scenario_id(bench_id)]
    # numpy global-state hygiene: the builders use explicit Generators,
    # but reset the legacy global RNG anyway so a stray np.random.* call
    # cannot couple one scenario's digest to whatever ran before it.
    np.random.seed(0)  # simlint: disable=DET002 -- resets, never draws from, the global stream
    outcome, tracer = scenario.trace("golden")
    if tracer is None:
        return scenario.canonical(outcome)
    return to_jsonl(tracer, include_metrics=True)


def pinned_digests() -> dict:
    """``{bench_id: {"sha256", "bytes", "lines"}}`` from :data:`DIGESTS_FILE`."""
    import json

    with open(DIGESTS_FILE) as fh:
        return json.load(fh)


__all__ = [
    "DIGESTS_FILE",
    "JGI_TASKS",
    "SCENARIOS",
    "Scenario",
    "golden_trace",
    "jgi_wdl",
    "numerical_failure_task",
    "pinned_digests",
    "run_scenario",
    "scenario_id",
]
