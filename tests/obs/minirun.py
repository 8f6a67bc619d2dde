"""Shared traced mini-scenarios for the observability tests.

``mini_entk_run`` is the E2/E3 campaign (``repro.report.scenarios``) at
a scale that finishes in well under a second, with tracing enabled so
the tests can exercise the span/metric/query/export stack against a
real multi-layer run.  ``assert_chrome_trace_valid`` checks the Trace
Event Format invariants Perfetto relies on.
"""

from collections import defaultdict

import numpy as np

from repro.entk import AppManager, Pipeline, ResourceDescription, Stage
from repro.entk.platforms import platform_cluster
from repro.exaam import frontier_stage3_tasks
from repro.obs import enable_tracing
from repro.rm import BatchScheduler
from repro.simkernel import Environment


def mini_entk_run(n_tasks=400, nodes=400, seed=42, trace=True,
                  trace_kernel=False, sink=None):
    """UQ Stage 3 on a mini Frontier; returns ``(profile, tracer)``."""
    env = Environment()
    tracer = (
        enable_tracing(env, trace_kernel=trace_kernel, sink=sink)
        if trace
        else None
    )
    cluster = platform_cluster(env, "frontier", nodes=nodes)
    batch = BatchScheduler(env, cluster, backfill=False)
    am = AppManager(
        env, batch, ResourceDescription(nodes=nodes, walltime_s=12 * 3600)
    )
    pipeline = Pipeline(name="uq-stage3")
    stage = Stage(name="exaconstit")
    stage.add_tasks(frontier_stage3_tasks(n_tasks, rng=np.random.default_rng(seed)))
    pipeline.add_stage(stage)
    result = am.run([pipeline])
    env.run(until=result.done)
    assert result.succeeded
    return result.profiles[0], tracer


def assert_chrome_trace_valid(doc):
    """Assert the Trace Event Format invariants on an exported dict.

    - non-metadata events are sorted by timestamp,
    - within each (pid, tid) lane the B/E events form a balanced,
      properly nested bracket sequence (each E closes the innermost
      open B, matched by span_id).
    """
    events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts), "trace events not time-sorted"

    stacks = defaultdict(list)
    for e in events:
        if e["ph"] not in ("B", "E"):
            continue
        lane = (e["pid"], e["tid"])
        if e["ph"] == "B":
            stacks[lane].append(e)
        else:
            assert stacks[lane], f"E without open B on lane {lane}: {e}"
            opener = stacks[lane].pop()
            assert opener["args"]["span_id"] == e["args"]["span_id"], (
                f"crossing brackets on lane {lane}: "
                f"B#{opener['args']['span_id']} closed by "
                f"E#{e['args']['span_id']}"
            )
            assert opener["name"] == e["name"]
    unbalanced = {lane: s for lane, s in stacks.items() if s}
    assert not unbalanced, f"unclosed B events: {unbalanced}"
