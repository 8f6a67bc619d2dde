"""The benchmark's four seeded workloads.

Each workload turns a seed into inputs (untimed), runs one *sample*
through the public ``repro`` API, and returns the sample's timed phases
and its simulated outcome.  A sample is timed from handing over the
inputs to a finished result: set-up (environment, cluster, scheduler,
engine or AppManager, WDL parsing, ``run()`` submission), the
simulation, and, for ``frontier_spill``, the report.

Why these four (README.md has the full interaction table):

- ``frontier_uq``: the EnTK agent, the kernel and ``obs.metrics``
  accounting do the work; ``rm`` sees a single pilot job and tracing
  is off.
- ``jgi_scatter``: the batch scheduler, ``FreeNodePool`` and the JAWS
  engine do the work (the paper's section-6 small-shard regime);
  ``entk`` and ``obs`` are absent.
- ``cws_grid``: the same ``rm`` layer used differently, Kube with
  workflow-aware ordering on a tiny contended cluster, so ``cws`` and
  ``core.metrics.upward_ranks`` dominate.
- ``frontier_spill``: the ``obs`` write side (spans to JSONL on disk)
  beside its read side (parse, analytics, rules), over the same EnTK
  path as ``frontier_uq``, so an ``obs`` change shows here and nowhere
  else.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.cluster import Cluster, NodeSpec
from repro.core.metrics import critical_path_length
from repro.cws.experiment import DEFAULT_POOLS, STRATEGIES
from repro.cws.interface import CWSI
from repro.engines import NextflowLikeEngine
from repro.entk import AppManager, Pipeline, ResourceDescription, Stage
from repro.entk.agent import AgentConfig
from repro.entk.platforms import platform_cluster
from repro.exaam import frontier_stage3_tasks
from repro.jaws import CromwellEngine, EngineOptions, parse_wdl
from repro.obs import JsonlSpillSink, StubTrace, enable_tracing
from repro.report import build_report
from repro.report.scenarios import e2_rules
from repro.rm import BatchScheduler
from repro.rm.kube import KubeScheduler
from repro.simkernel import Environment
from repro.workloads import workflow_mix

#: Spans, spill segments and raw run outputs (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Sample:
    """One sample's raw phase times (seconds) and simulated outcome."""

    setup_s: float
    report_s: float
    #: Simulated tasks, calls or pods completed.
    tasks: int
    #: What the outcome check digests: simulated results only.
    outcome: dict
    #: Simulation objects, held so they are freed outside the timed region.
    keep: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Samples per run: the run length, fixed so that it is the same on
    #: every commit; at least 40 so ten samples lie beyond ``p75``.
    samples: int
    #: ``inputs(seed, params)`` builds one sample's inputs (untimed).
    inputs: Callable[[int, dict], Any]
    #: ``run(inputs, params)`` executes one timed sample.
    run: Callable[[Any, dict], Sample]
    #: ``check(inputs, outcome, params)`` lists invariant violations
    #: that must hold for every seed.
    check: Callable[[Any, dict, dict], list]
    params: dict
    #: Reduced sizes for the smoke test.
    smoke: dict
    cleanup: Callable[[Any], None] = field(default=lambda inputs: None)


# -- frontier_uq: E2/E3 Stage 3 at paper scale -------------------------------------


def _frontier_inputs(seed: int, params: dict) -> Pipeline:
    stage = Stage(name="exaconstit")
    stage.add_tasks(
        frontier_stage3_tasks(params["tasks"], rng=np.random.default_rng(seed))
    )
    pipeline = Pipeline(name="uq-stage3")
    pipeline.add_stage(stage)
    return pipeline


def _frontier_campaign(env: Environment, pipeline: Pipeline, nodes: int):
    cluster = platform_cluster(env, "frontier", nodes=nodes)
    batch = BatchScheduler(env, cluster, backfill=False)
    am = AppManager(env, batch, ResourceDescription(nodes=nodes, walltime_s=24 * 3600))
    return am.run([pipeline])


def _finish_campaign(result) -> Any:
    if not result.succeeded:
        raise RuntimeError("Frontier campaign did not succeed")
    return result.profiles[0]


def _run_frontier_uq(pipeline: Pipeline, params: dict) -> Sample:
    t0 = perf_counter()
    env = Environment()
    result = _frontier_campaign(env, pipeline, params["nodes"])
    t1 = perf_counter()
    env.run(until=result.done)
    prof = _finish_campaign(result)
    return Sample(
        setup_s=t1 - t0,
        report_s=0.0,
        tasks=prof.tasks_done,
        outcome={
            "now": env.now,
            "core_utilization": prof.core_utilization,
            "tasks_done": prof.tasks_done,
        },
        keep=(env, result),
    )


def _check_campaign(pipeline: Pipeline, makespan: float, done: int, util: float,
                    params: dict) -> list:
    tasks = pipeline.stages[0].tasks
    problems = []
    if done != params["tasks"]:
        problems.append(f"{done} of {params['tasks']} tasks done")
    if not 0.0 < util <= 1.0:
        problems.append(f"core utilization {util} outside (0, 1]")
    # Work conservation: no schedule beats the bootstrap plus the
    # node-seconds of work spread over every node, or the longest task.
    work = sum(t.duration * t.nodes for t in tasks) / params["nodes"]
    bound = AgentConfig().bootstrap_s + max(work, max(t.duration for t in tasks))
    if makespan < bound - 1e-6:
        problems.append(f"makespan {makespan} below the work bound {bound}")
    return problems


def _check_frontier_uq(pipeline: Pipeline, outcome: dict, params: dict) -> list:
    return _check_campaign(
        pipeline, outcome["now"], outcome["tasks_done"],
        outcome["core_utilization"], params,
    )


# -- jgi_scatter: E7's QC chain scattered over many samples ------------------------

#: (task, input, output, output value, image) along the qc->trim->align->stats chain.
_JGI_CHAIN = (
    ("qc", "File reads", "File cleaned", "cleaned.fq", "jgi/qc@sha256:aa"),
    ("trim", "File cleaned", "File trimmed", "trimmed.fq", "jgi/qc@sha256:aa"),
    ("align", "File trimmed", "File bam", "out.bam", "jgi/align@sha256:bb"),
    ("stats", "File bam", "File report", "stats.txt", "jgi/qc@sha256:aa"),
)

#: E7's overhead-dominated cost model, with call caching off so every
#: shard executes.
_JGI_OPTIONS = EngineOptions(
    container_start_s=45.0, stage_overhead_s=420.0, call_caching=False
)


def _jgi_inputs(seed: int, params: dict) -> tuple:
    rng = np.random.default_rng(seed)
    shapes = [
        (int(rng.choice((1, 2, 4))), int(rng.choice((1, 2, 3)))) for _ in _JGI_CHAIN
    ]
    tasks = "".join(
        f"""
    task {name} {{
        input {{ {inp} }}
        command <<< run_{name} >>>
        output {{ {out} = "{value}" }}
        runtime {{ cpu: {cpu}, runtime_minutes: {minutes}, docker: "{image}" }}
    }}"""
        for (name, inp, out, value, image), (cpu, minutes) in zip(_JGI_CHAIN, shapes)
    )
    names = ", ".join(f'"s{i}.fq"' for i in range(params["samples"]))
    text = f"""version 1.0
{tasks}
    workflow sample_qc {{
        input {{ Array[File] samples = [{names}] }}
        scatter (s in samples) {{
            call qc {{ input: reads = s }}
            call trim {{ input: cleaned = qc.cleaned }}
            call align {{ input: trimmed = trim.trimmed }}
            call stats {{ input: bam = align.bam }}
        }}
    }}
"""
    return text, shapes


def _run_jgi_scatter(inputs: tuple, params: dict) -> Sample:
    text, _shapes = inputs
    t0 = perf_counter()
    document = parse_wdl(text)
    env = Environment()
    cluster = Cluster(
        env, name="jgi", pools=[(NodeSpec("c", cores=16, memory_gb=128), params["nodes"])]
    )
    batch = BatchScheduler(env, cluster, backfill=True)
    engine = CromwellEngine(env, batch, _JGI_OPTIONS)
    result = engine.run(document)
    t1 = perf_counter()
    env.run(until=result.done)
    if not result.succeeded:
        raise RuntimeError(f"JGI scatter failed: {result.error}")
    return Sample(
        setup_s=t1 - t0,
        report_s=0.0,
        tasks=result.shard_count,
        outcome={"makespan": result.makespan, "shard_count": result.shard_count},
        keep=(env, result),
    )


def _check_jgi_scatter(inputs: tuple, outcome: dict, params: dict) -> list:
    _text, shapes = inputs
    problems = []
    calls = len(_JGI_CHAIN) * params["samples"]
    if outcome["shard_count"] != calls:
        problems.append(f"{outcome['shard_count']} of {calls} calls executed")
    overhead = _JGI_OPTIONS.container_start_s + _JGI_OPTIONS.stage_overhead_s
    per_call = [overhead + 60.0 * minutes for _cpu, minutes in shapes]
    # Each sample's chain runs in order, and every call holds a whole
    # node (the batch system grants whole nodes) for its duration.
    bound = max(sum(per_call), sum(per_call) * params["samples"] / params["nodes"])
    if outcome["makespan"] < bound - 1e-6:
        problems.append(f"makespan {outcome['makespan']} below the bound {bound}")
    return problems


# -- cws_grid: the E1 row, one workflow mix under every strategy -------------------


def _cws_inputs(seed: int, params: dict) -> list:
    return workflow_mix(seed=seed)[: params["workflows"]]


def _run_cws_grid(workflows: list, params: dict) -> Sample:
    setup = 0.0
    makespans: dict = {}
    tasks = 0
    keep = []
    for workflow in workflows:
        row = []
        for strategy in STRATEGIES:
            t0 = perf_counter()
            env = Environment()
            cluster = Cluster(env, pools=list(DEFAULT_POOLS))
            scheduler = KubeScheduler(env, cluster)
            cwsi = CWSI(env, scheduler, strategy=strategy)
            engine = NextflowLikeEngine(env, scheduler, cwsi=cwsi)
            run = engine.run(workflow)
            setup += perf_counter() - t0
            env.run(until=run.done)
            if not run.succeeded:
                raise RuntimeError(f"{workflow.name} failed under {strategy}: {run.stats}")
            row.append(run.makespan)
            tasks += sum(1 for r in run.records.values() if r.state == "completed")
            keep.append((env, run))
        makespans[workflow.name] = row
    return Sample(
        setup_s=setup,
        report_s=0.0,
        tasks=tasks,
        outcome={"makespans": makespans},
        keep=keep,
    )


def _check_cws_grid(workflows: list, outcome: dict, params: dict) -> list:
    problems = []
    fastest = max(spec.speed for spec, _count in DEFAULT_POOLS)
    for workflow in workflows:
        row = outcome["makespans"].get(workflow.name, [])
        if len(row) != len(STRATEGIES):
            problems.append(f"{workflow.name}: {len(row)} of {len(STRATEGIES)} runs")
            continue
        # No schedule beats the critical path on the fastest node.
        bound = critical_path_length(workflow) / fastest
        for strategy, makespan in zip(STRATEGIES, row):
            if makespan < bound - 1e-6:
                problems.append(
                    f"{workflow.name}/{strategy}: makespan {makespan} below {bound}"
                )
    return problems


# -- frontier_spill: E2 traced to disk, then reported from the spill ---------------

_SPILL_DIR = OUT_DIR / "spill"


def _spill_inputs(seed: int, params: dict) -> tuple:
    shutil.rmtree(_SPILL_DIR, ignore_errors=True)
    _SPILL_DIR.mkdir(parents=True)
    return _frontier_inputs(seed, params), _SPILL_DIR


def _run_frontier_spill(inputs: tuple, params: dict) -> Sample:
    pipeline, directory = inputs
    t0 = perf_counter()
    env = Environment()
    sink = JsonlSpillSink(directory)
    tracer = enable_tracing(env, sink=sink)
    result = _frontier_campaign(env, pipeline, params["nodes"])
    t1 = perf_counter()
    env.run(until=result.done)
    tracer.close()
    prof = _finish_campaign(result)
    t2 = perf_counter()
    with contextlib.ExitStack() as stack:
        segments = [stack.enter_context(open(path)) for path in sink.segments()]
        trace = StubTrace.from_jsonl(itertools.chain.from_iterable(segments))
    report = build_report(
        "E2",
        trace,
        headline={
            "tasks_done": prof.tasks_done,
            "core_utilization": prof.core_utilization,
            "gpu_utilization": prof.gpu_utilization,
        },
        rules=e2_rules(params["nodes"]),
        component="entk-pilot-0",
        straggler_category="entk.exec",
        idle_metric=("entk-pilot-0", "cores"),
        stream=True,
    )
    t3 = perf_counter()
    verdict = report.to_verdict()
    return Sample(
        setup_s=t1 - t0,
        report_s=t3 - t2,
        tasks=prof.tasks_done,
        outcome={"headline": verdict["headline"], "ok": report.ok},
        keep=(env, result, trace, report),
    )


def _check_frontier_spill(inputs: tuple, outcome: dict, params: dict) -> list:
    pipeline, directory = inputs
    head = outcome["headline"]
    problems = _check_campaign(
        pipeline, head["job_runtime_s"], head["tasks_done"],
        head["core_utilization"], params,
    )
    if not outcome["ok"]:
        problems.append("E2 rules fired on the spilled trace")
    if not any(name.endswith(".jsonl") for name in os.listdir(directory)):
        problems.append("no finalized spill segment on disk")
    return problems


def _spill_cleanup(inputs: tuple) -> None:
    shutil.rmtree(inputs[1], ignore_errors=True)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "frontier_uq",
            samples=40,
            inputs=_frontier_inputs,
            run=_run_frontier_uq,
            check=_check_frontier_uq,
            params={"tasks": 7875, "nodes": 8000},
            smoke={"tasks": 200, "nodes": 200},
        ),
        Workload(
            "jgi_scatter",
            samples=60,
            inputs=_jgi_inputs,
            run=_run_jgi_scatter,
            check=_check_jgi_scatter,
            params={"samples": 1250, "nodes": 256},
            smoke={"samples": 40, "nodes": 16},
        ),
        Workload(
            "cws_grid",
            samples=100,
            inputs=_cws_inputs,
            run=_run_cws_grid,
            check=_check_cws_grid,
            params={"workflows": 5},
            smoke={"workflows": 2},
        ),
        Workload(
            "frontier_spill",
            samples=50,
            inputs=_spill_inputs,
            run=_run_frontier_spill,
            check=_check_frontier_spill,
            params={"tasks": 2000, "nodes": 2000},
            smoke={"tasks": 200, "nodes": 200},
            cleanup=_spill_cleanup,
        ),
    )
}
