"""Workflow management system engines.

Four WMS archetypes from §3.2, executing
:class:`~repro.core.workflow.Workflow` DAGs.  Three run on a
:class:`~repro.rm.kube.KubeScheduler`:

- :class:`NextflowLikeEngine` — submits each ready task as its own pod
  the moment its dependencies complete; the resource manager sees no
  workflow context ("Nextflow only supports the basic features of
  resource managers").  Pass ``cwsi=`` a
  :class:`repro.cws.interface.CWSI` and it registers the DAG and task
  metadata with the resource manager, making it workflow-aware.
- :class:`ArgoLikeEngine` — identical task-at-a-time submission plus a
  fixed per-pod container startup overhead ("Argo also submits each
  task individually, and Kubernetes then schedules them in a FIFO
  manner").
- :class:`AirflowLikeEngine` — the big-worker anti-strategy: one
  node-sized worker pod per node held for the whole workflow, tasks
  routed into workers internally, "bypassing Kubernetes' task
  assignment logic".  Reports the requested-vs-used wastage §3.2 calls
  out.

:class:`BatchDagEngine` hands the whole DAG to a
:class:`~repro.rm.batch.BatchScheduler` as ``afterok``-chained jobs.
The Kube engines share one loop, :class:`~repro.engines.base.DagDriver`
(parent countdowns, one completion channel, one retry epilogue); each
supplies only how an attempt is launched.
"""

from repro.engines.base import EngineError, TaskRecord, WorkflowRun
from repro.engines.taskwise import ArgoLikeEngine, NextflowLikeEngine
from repro.engines.bigworker import AirflowLikeEngine
from repro.engines.batchdag import BatchDagEngine

__all__ = [
    "AirflowLikeEngine",
    "ArgoLikeEngine",
    "BatchDagEngine",
    "EngineError",
    "NextflowLikeEngine",
    "TaskRecord",
    "WorkflowRun",
]
