"""Wall-clock perf scenarios (synthetic + full-scale paper runs).

Every scenario is a plain function returning a metrics dict with at
least ``wall_s``, ``events``, ``events_per_s``, and a scenario-specific
``throughput`` (the number the CI regression gate compares).  Scenarios
take their scale as parameters; :data:`SCENARIOS` binds the ``smoke``
and ``full`` parameter sets the CLI uses.

Determinism note: these runs go through exactly the same substrate as
the correctness suites — they measure wall-clock time but never feed it
back into the simulation, so running them cannot perturb simulated
results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster import Cluster, NodeSpec
from repro.rm import BatchScheduler
from repro.rm.base import Job, ResourceRequest
from repro.simkernel import (
    Container,
    Environment,
    FilterStore,
    Resource,
    Store,
)


def _finish(env: Environment, t0: float, extra: dict) -> dict:
    wall = time.perf_counter() - t0
    out = {
        "wall_s": round(wall, 4),
        "events": env.scheduled_events,
        "events_per_s": round(env.scheduled_events / wall) if wall > 0 else 0,
    }
    out.update(extra)
    return out


# -- kernel microbenches -----------------------------------------------------------


def kernel_events(
    n_procs: int = 200, n_hops: int = 100, env_cls: type = Environment
) -> dict:
    """Raw event-loop churn: ``n_procs`` processes doing timeout hops.

    ``env_cls`` selects the loop under test — the default calendar
    queue, or ``repro.simkernel.NaiveEnvironment`` for the preserved
    seed loop (the speedup gates in ``benchmarks/test_kernel_speedup.py``
    run the same workload through both and assert on the live ratio).
    """
    env = env_cls()

    def hopper(env, period):
        for _ in range(n_hops):
            yield env.timeout(period)

    for i in range(n_procs):
        env.process(hopper(env, 1.0 + (i % 13) * 0.1), name=f"hop{i}")
    t0 = time.perf_counter()
    env.run()
    return _finish(env, t0, {
        "throughput": None,  # filled below: events are the throughput
        "params": {"n_procs": n_procs, "n_hops": n_hops},
    })


def resource_churn(n_procs: int = 500, n_rounds: int = 20) -> dict:
    """Contention traffic over all four resource primitives.

    Each process loops: claim a Resource slot, put/get a Container
    amount, push/pop a Store item, and do a predicate get against a
    FilterStore — the access mix the schedulers and agents generate.
    """
    env = Environment()
    slots = Resource(env, capacity=max(2, n_procs // 8))
    tank = Container(env, capacity=float(n_procs), init=float(n_procs) / 2)
    queue = Store(env)
    filtered = FilterStore(env)

    def worker(env, k):
        for r in range(n_rounds):
            with slots.request(priority=k % 3) as req:
                yield req
                yield env.timeout(0.5 + (k % 5) * 0.1)
            yield tank.put(1.0)
            yield tank.get(1.0)
            yield queue.put((k, r))
            yield queue.get()
            yield filtered.put(k)
            # Residue-class predicate: getters of class c only consume
            # items put by class-c workers, so counts always balance and
            # no getter can starve (any class item satisfies any class
            # getter).
            got = yield filtered.get(lambda item, c=k % 7: item % 7 == c)
            assert got % 7 == k % 7

    for k in range(n_procs):
        env.process(worker(env, k), name=f"w{k}")
    t0 = time.perf_counter()
    env.run()
    ops = n_procs * n_rounds
    res = _finish(env, t0, {"params": {"n_procs": n_procs, "n_rounds": n_rounds}})
    res["throughput"] = round(ops / res["wall_s"]) if res["wall_s"] else 0
    res["throughput_unit"] = "op_rounds/s"
    return res


# -- scheduler-bound many-small-jobs (the JAWS §6 regime) --------------------------


def sched_small_jobs(n_jobs: int = 10_000, nodes: int = 256) -> dict:
    """Flood the batch scheduler with single-node jobs (EASY backfill on).

    This is the regime the paper's §6 JAWS sites live in: thousands of
    small shard jobs against one scheduler.  The scheduler's per-pass
    work — not the simulated workload — dominates the wall-clock.
    """
    env = Environment()
    cluster = Cluster(
        env, name="perf", pools=[(NodeSpec("c", cores=16, memory_gb=64), nodes)]
    )
    batch = BatchScheduler(env, cluster, backfill=True)
    req = ResourceRequest(nodes=1, cores_per_node=4, walltime_s=3600.0)
    peak_queue = 0
    jobs = [
        Job(request=req, duration=60.0 + (i % 8) * 15.0, user=f"u{i % 7}")
        for i in range(n_jobs)
    ]
    t0 = time.perf_counter()
    for j in jobs:
        batch.submit(j)
        if batch.queue_length > peak_queue:
            peak_queue = batch.queue_length
    env.run()
    assert len(batch.finished) == n_jobs
    res = _finish(env, t0, {
        "params": {"n_jobs": n_jobs, "nodes": nodes},
        "peak_queue_length": peak_queue,
        "makespan_sim_s": env.now,
    })
    res["throughput"] = round(n_jobs / res["wall_s"], 1) if res["wall_s"] else 0
    res["throughput_unit"] = "jobs/s"
    return res


def queue_scaling(
    depths=(500, 1000, 2000, 4000), nodes: int = 128, repeats: int = 3
) -> dict:
    """Throughput-vs-queue-depth curve for the batch scheduler.

    A scheduler with linear per-pass cost shows collapsing jobs/s as
    the queue deepens; an indexed one holds roughly flat.  The curve is
    the artifact — ``throughput`` reports the deepest point so the
    regression gate guards the worst case.

    Each depth runs ``repeats`` times and keeps the best (lowest) wall
    clock.  The small depths finish in tens of milliseconds, where a
    single GC pause or scheduler hiccup is a 2x outlier; best-of-k is
    the standard estimator for the noise-free cost of deterministic
    work (the simulated run is bit-identical across repeats, so the
    minimum is the run with the least interference).
    """
    curve = []
    for depth in depths:
        best = None
        for _ in range(max(1, repeats)):
            point = sched_small_jobs(n_jobs=depth, nodes=nodes)
            if best is None or point["wall_s"] < best["wall_s"]:
                best = point
        curve.append({
            "n_jobs": depth,
            "wall_s": best["wall_s"],
            "jobs_per_s": best["throughput"],
        })
    return {
        "params": {"depths": list(depths), "nodes": nodes, "repeats": repeats},
        "curve": curve,
        "wall_s": round(sum(p["wall_s"] for p in curve), 4),
        "events": 0,
        "events_per_s": 0,
        "throughput": curve[-1]["jobs_per_s"],
        "throughput_unit": "jobs/s@deepest",
    }


# -- JAWS shard storm ---------------------------------------------------------------


def jaws_shards(n_shards: int = 10_000, nodes: int = 256) -> dict:
    """A huge scatter through the Cromwell engine onto the batch system.

    One WDL task scattered ``n_shards`` ways: every shard becomes its
    own batch job (the §6.1 'strain on the filesystem' anti-pattern at
    full blast).  Call caching is off so every shard really executes.
    """
    from repro.jaws import CromwellEngine, EngineOptions, parse_wdl

    wdl = """
    version 1.0
    task align {
        input { Int idx }
        command <<< run_align >>>
        output { Int done = idx }
        runtime { cpu: 4, runtime_minutes: 2, docker: "jgi/align@sha256:bb" }
    }
    workflow storm {
        input { Int width }
        scatter (i in range(width)) {
            call align { input: idx = i }
        }
    }
    """
    env = Environment()
    cluster = Cluster(
        env, name="jaws-site", pools=[(NodeSpec("c", cores=16, memory_gb=128), nodes)]
    )
    batch = BatchScheduler(env, cluster)
    options = EngineOptions(
        container_start_s=45.0, stage_overhead_s=60.0, call_caching=False
    )
    engine = CromwellEngine(env, batch, options)
    result = engine.run(parse_wdl(wdl), inputs={"width": n_shards})
    t0 = time.perf_counter()
    env.run(until=result.done)
    assert result.succeeded, result.error
    assert result.shard_count == n_shards
    res = _finish(env, t0, {
        "params": {"n_shards": n_shards, "nodes": nodes},
        "makespan_sim_s": result.makespan,
    })
    res["throughput"] = round(n_shards / res["wall_s"], 1) if res["wall_s"] else 0
    res["throughput_unit"] = "shards/s"
    return res


# -- full-scale E2/E3 ---------------------------------------------------------------


def entk_frontier(n_tasks: int = 7875, nodes: int = 8000, seed: int = 42) -> dict:
    """The paper's Frontier UQ campaign (E2/E3) at the given scale.

    Runs untraced — this measures the substrate, not the observability
    layer; the traced variant is the E2/E3 scenario in
    ``repro.report.scenarios``.
    """
    from repro.entk import AppManager, Pipeline, ResourceDescription, Stage
    from repro.entk.platforms import platform_cluster
    from repro.exaam import frontier_stage3_tasks

    env = Environment()
    cluster = platform_cluster(env, "frontier", nodes=nodes)
    batch = BatchScheduler(env, cluster, backfill=False)
    am = AppManager(
        env, batch, ResourceDescription(nodes=nodes, walltime_s=24 * 3600)
    )
    pipeline = Pipeline(name="uq-stage3")
    stage = Stage(name="exaconstit")
    stage.add_tasks(frontier_stage3_tasks(n_tasks, rng=np.random.default_rng(seed)))
    pipeline.add_stage(stage)
    result = am.run([pipeline])
    t0 = time.perf_counter()
    env.run(until=result.done)
    assert result.succeeded
    prof = result.profiles[0]
    res = _finish(env, t0, {
        "params": {"n_tasks": n_tasks, "nodes": nodes, "seed": seed},
        "makespan_sim_s": env.now,
        "sim_core_utilization": round(prof.core_utilization, 4),
    })
    res["throughput"] = round(n_tasks / res["wall_s"], 1) if res["wall_s"] else 0
    res["throughput_unit"] = "tasks/s"
    return res


# -- scenario registry --------------------------------------------------------------


@dataclass(frozen=True)
class PerfScenario:
    """A named scenario with its smoke- and full-scale parameter sets."""

    name: str
    fn: Callable[..., dict]
    smoke: dict
    full: dict
    description: str = ""

    def run(self, mode: str = "smoke") -> dict:
        params = self.smoke if mode == "smoke" else self.full
        out = self.fn(**params)
        if out.get("throughput") is None:
            out["throughput"] = out["events_per_s"]
            out["throughput_unit"] = "events/s"
        return out


SCENARIOS: dict[str, PerfScenario] = {
    s.name: s
    for s in [
        PerfScenario(
            "kernel_events",
            kernel_events,
            smoke={"n_procs": 200, "n_hops": 200},
            full={"n_procs": 2000, "n_hops": 500},
            description="raw event-loop churn (timeout ping-pong)",
        ),
        PerfScenario(
            "resource_churn",
            resource_churn,
            smoke={"n_procs": 300, "n_rounds": 10},
            full={"n_procs": 2000, "n_rounds": 25},
            description="Resource/Store/Container/FilterStore traffic",
        ),
        PerfScenario(
            "sched_small_jobs",
            sched_small_jobs,
            smoke={"n_jobs": 1500, "nodes": 64},
            full={"n_jobs": 10_000, "nodes": 256},
            description="scheduler-bound many-small-jobs flood",
        ),
        PerfScenario(
            "queue_scaling",
            queue_scaling,
            smoke={"depths": (250, 500, 1000), "nodes": 64},
            full={"depths": (500, 1000, 2000, 4000, 8000), "nodes": 128},
            description="jobs/s vs queue depth scaling curve",
        ),
        PerfScenario(
            "jaws_shards",
            jaws_shards,
            smoke={"n_shards": 300, "nodes": 64},
            full={"n_shards": 10_000, "nodes": 256},
            description="10k-shard WDL scatter through Cromwell + batch",
        ),
        PerfScenario(
            "entk_frontier",
            entk_frontier,
            smoke={"n_tasks": 400, "nodes": 400},
            full={"n_tasks": 7875, "nodes": 8000},
            description="full-scale E2/E3 Frontier UQ campaign",
        ),
    ]
}

__all__ = [
    "PerfScenario",
    "SCENARIOS",
    "entk_frontier",
    "jaws_shards",
    "kernel_events",
    "queue_scaling",
    "resource_churn",
    "sched_small_jobs",
]
