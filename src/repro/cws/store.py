"""The CWS in-memory workflow store (Fig 2's "Storage" box).

"WMSs such as Airflow, Nextflow, or Argo send their requests, which
are then kept in memory of CWS.  From this storage, the CWS can fetch
the workflow graph and task dependencies and use this information for
scheduling."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.metrics import bottom_levels
from repro.core.workflow import Workflow


@dataclass
class StoredWorkflow:
    """A registered workflow plus cached derived data."""

    workflow: Workflow
    registered_at: float = 0.0
    completed_tasks: set = field(default_factory=set)
    #: file name -> node id holding it (node-local scratch), filled in
    #: as tasks complete; consumed by data-locality strategies.
    file_locations: dict = field(default_factory=dict)
    #: Cached structural metrics (invalidated never — DAGs are static).
    _bottom_levels: Optional[dict] = None

    @property
    def bottom_levels(self) -> dict:
        if self._bottom_levels is None:
            self._bottom_levels = bottom_levels(self.workflow)
        return self._bottom_levels

    @property
    def done(self) -> bool:
        return len(self.completed_tasks) == len(self.workflow)


class WorkflowStore:
    """Registry of workflows the resource manager currently knows about."""

    def __init__(self):
        self._workflows: dict[str, StoredWorkflow] = {}

    def register(self, workflow: Workflow, now: float = 0.0) -> StoredWorkflow:
        """Store a workflow graph; re-registering replaces the entry."""
        stored = StoredWorkflow(workflow=workflow, registered_at=now)
        self._workflows[workflow.name] = stored
        return stored

    def get(self, name: str) -> StoredWorkflow:
        return self._workflows[name]

    def __contains__(self, name: str) -> bool:
        return name in self._workflows

    def __len__(self) -> int:
        return len(self._workflows)

    def mark_completed(self, workflow_name: str, task_name: str) -> None:
        self._workflows[workflow_name].completed_tasks.add(task_name)

    # -- scheduling queries -----------------------------------------------------

    def rank_of(self, workflow_name: str, task_name: str) -> int:
        """Structural rank (bottom level): hops to the farthest sink."""
        return self.get(workflow_name).bottom_levels[task_name]

    def input_bytes_of(self, workflow_name: str, task_name: str) -> int:
        """Total bytes of the task's input files (producer-declared sizes)."""
        wf = self.get(workflow_name).workflow
        spec = wf.task(task_name)
        total = 0
        for inp in spec.inputs:
            producer = wf.producer_of(inp)
            if producer is None:
                continue  # external input: size unknown to the store
            for out in wf.task(producer).outputs:
                if out.name == inp:
                    total += out.size_bytes
        return total

    def dependents_of(self, workflow_name: str, task_name: str) -> list:
        return self.get(workflow_name).workflow.children(task_name)

    def active_workflows(self) -> list:
        return [s for s in self._workflows.values() if not s.done]
