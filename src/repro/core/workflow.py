"""Workflow DAGs over :class:`~repro.core.task.TaskSpec`."""

from __future__ import annotations

import heapq
from typing import Iterable, Optional

from repro.core.task import TaskSpec


class WorkflowValidationError(ValueError):
    """The workflow graph violates an invariant (cycle, missing input...)."""


class Workflow:
    """A named DAG of tasks with file- and explicitly-declared edges.

    Dependencies come from two sources, merged:

    1. **File inference** — task B depending on a file task A produces
       gets an edge A → B (how Nextflow/Parsl/WDL wiring works).
    2. **Explicit edges** — ``add_task(spec, after=[...])`` for
       control-flow dependencies with no data exchange.
    """

    def __init__(self, name: str):
        if not name:
            raise ValueError("Workflow name must be non-empty")
        self.name = name
        self._tasks: dict[str, TaskSpec] = {}
        self._producer: dict[str, str] = {}  # file name -> task name
        self._parents: dict[str, set] = {}
        self._children: dict[str, set] = {}

    # -- construction -------------------------------------------------------

    def add_task(self, spec: TaskSpec, after: Iterable[str] = ()) -> TaskSpec:
        """Add a task, inferring dependencies from its input files."""
        if spec.name in self._tasks:
            raise WorkflowValidationError(
                f"Duplicate task name {spec.name!r} in workflow {self.name!r}"
            )
        for out in spec.outputs:
            owner = self._producer.get(out.name)
            if owner is not None:
                raise WorkflowValidationError(
                    f"File {out.name!r} produced by both {owner!r} and {spec.name!r}"
                )
        # Edges only run from existing tasks to the new one, so the only
        # cycle an insert can form is a self-loop.
        parents = set(after)
        if spec.name in parents or not set(spec.inputs).isdisjoint(spec.output_names):
            raise WorkflowValidationError(
                f"Adding {spec.name!r} would create a cycle"
            )
        missing = sorted(parents - self._tasks.keys())
        if missing:
            raise WorkflowValidationError(
                f"after={missing[0]!r}: no such task in workflow {self.name!r}"
            )
        parents.update(self._producer[i] for i in spec.inputs if i in self._producer)
        self._tasks[spec.name] = spec
        self._parents[spec.name] = parents
        self._children[spec.name] = set()
        for parent in parents:
            self._children[parent].add(spec.name)
        for out in spec.outputs:
            self._producer[out.name] = spec.name
        return spec

    # -- queries --------------------------------------------------------------

    @property
    def tasks(self) -> dict[str, TaskSpec]:
        return dict(self._tasks)

    def task(self, name: str) -> TaskSpec:
        return self._tasks[name]

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def parents(self, name: str) -> list[str]:
        return sorted(self._parents[name])

    def children(self, name: str) -> list[str]:
        return sorted(self._children[name])

    def roots(self) -> list[str]:
        return sorted(n for n, ps in self._parents.items() if not ps)

    def sinks(self) -> list[str]:
        return sorted(n for n, cs in self._children.items() if not cs)

    def topological_order(self) -> list[str]:
        """Deterministic topological order: Kahn's algorithm, always
        emitting the smallest-named ready task."""
        waiting = {n: len(ps) for n, ps in self._parents.items()}
        heap = [n for n, k in waiting.items() if k == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            node = heapq.heappop(heap)
            order.append(node)
            for child in self._children[node]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    heapq.heappush(heap, child)
        return order

    def ready_tasks(self, completed: set) -> list[str]:
        """Tasks whose parents are all in ``completed`` and not completed
        themselves — what a WMS submits next."""
        return sorted(
            n
            for n, ps in self._parents.items()
            if n not in completed and ps <= completed
        )

    def external_inputs(self) -> set:
        """Input files no task produces (must pre-exist in the catalog)."""
        produced = set(self._producer)
        needed = {inp for spec in self._tasks.values() for inp in spec.inputs}
        return needed - produced

    def producer_of(self, file_name: str) -> Optional[str]:
        return self._producer.get(file_name)

    # -- aggregate properties -----------------------------------------------------

    def total_work(self) -> float:
        """Sum of nominal core-seconds across all tasks."""
        return sum(t.runtime_s * t.cores for t in self._tasks.values())

    def validate(self) -> None:
        """Raise :class:`WorkflowValidationError` on structural problems."""
        if not self._tasks:
            raise WorkflowValidationError(f"Workflow {self.name!r} is empty")

    def to_dot(self) -> str:
        """GraphViz DOT export (for docs, debugging, papers).

        Nodes are labelled ``name (runtime, cores)``; edges carry the
        file(s) flowing along them when the dependency is data-driven.
        """
        lines = [f'digraph "{self.name}" {{', "  rankdir=TB;"]
        for name, spec in sorted(self._tasks.items()):
            label = f"{name}\\n{spec.runtime_s:g}s x {spec.cores}c"
            lines.append(f'  "{name}" [label="{label}"];')
        edges = sorted((p, n) for n, ps in self._parents.items() for p in ps)
        for src, dst in edges:
            files = [
                out.name
                for out in self._tasks[src].outputs
                if out.name in self._tasks[dst].inputs
            ]
            attr = f' [label="{", ".join(files)}"]' if files else ""
            lines.append(f'  "{src}" -> "{dst}"{attr};')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<Workflow {self.name!r}: {len(self._tasks)} tasks, "
            f"{sum(map(len, self._parents.values()))} edges>"
        )
