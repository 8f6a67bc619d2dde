"""Graph analytics for scheduling strategies.

These are the quantities workflow-aware schedulers rank tasks by:

- **Upward rank** (HEFT, [Topcuoglu 2002] — the paper's ref. 45): the
  length of the longest path from a task to any sink, counting task
  runtimes.  Scheduling high-rank tasks first keeps the critical path
  moving — the CWS "rank" strategy of §3.5.
- **Bottom level / critical path** — classic list-scheduling inputs.
- **Merge points** — tasks with in-degree > 1, where "the entire
  execution is waiting for one particular task" (§3.2, the Airflow
  resource-wastage argument).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.workflow import Workflow


def upward_ranks(
    workflow: Workflow,
    runtime_of: Optional[Callable[[str], float]] = None,
) -> dict[str, float]:
    """HEFT upward rank for every task.

    ``rank(t) = w(t) + max over children c of rank(c)`` (0 for sinks'
    max term).  ``runtime_of`` supplies the runtime estimate; defaults
    to the spec's nominal runtime.  Pass a predictor's estimate to study
    scheduling under imperfect information (bench E1 ablation).
    """
    runtime_of = runtime_of or (lambda name: workflow.task(name).runtime_s)
    ranks: dict[str, float] = {}
    for node in reversed(workflow.topological_order()):
        child_max = max(
            (ranks[c] for c in workflow.children(node)),
            default=0.0,
        )
        ranks[node] = runtime_of(node) + child_max
    return ranks


def bottom_levels(workflow: Workflow) -> dict[str, int]:
    """Edge-count distance from each task to its farthest sink."""
    levels: dict[str, int] = {}
    for node in reversed(workflow.topological_order()):
        levels[node] = 1 + max(
            (levels[c] for c in workflow.children(node)), default=-1
        )
    return levels


def critical_path_length(
    workflow: Workflow,
    runtime_of: Optional[Callable[[str], float]] = None,
) -> float:
    """Length of the longest runtime-weighted path — the makespan lower
    bound on infinite resources."""
    ranks = upward_ranks(workflow, runtime_of)
    return max(ranks.values()) if ranks else 0.0


def merge_points(workflow: Workflow) -> list[str]:
    """Tasks with more than one parent, sorted by in-degree descending.

    These are the synchronization barriers that make workflow-blind
    scheduling expensive: every parent chain must finish before the
    merge task can start.
    """
    in_degree = {n: len(workflow.parents(n)) for n in workflow.tasks}
    merges = [n for n, k in in_degree.items() if k > 1]
    return sorted(merges, key=lambda n: (-in_degree[n], n))


def workflow_width(workflow: Workflow) -> int:
    """Maximum antichain size approximation: the largest number of tasks
    sharing the same depth — an upper bound on useful parallelism."""
    depth: dict[str, int] = {}
    for node in workflow.topological_order():
        depth[node] = 1 + max((depth[p] for p in workflow.parents(node)), default=-1)
    counts: dict[int, int] = {}
    for d in depth.values():
        counts[d] = counts.get(d, 0) + 1
    return max(counts.values()) if counts else 0
