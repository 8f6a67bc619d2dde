"""Whole-DAG batch submission via resource-manager dependencies (§3.2).

"For example, on SLURM, the task dependency feature is not used" —
Nextflow submits ready tasks one at a time and keeps a polling loop
alive for the whole run.  This engine shows the alternative the CWSI
argues for: hand the *entire* DAG to the resource manager up front as
``afterok``-chained jobs and walk away.  The scheduler releases each
task the moment its parents complete, with no WMS round-trip on the
critical path, and failure semantics (cancel the downstream cone) are
enforced by the RM itself.
"""

from __future__ import annotations

from repro.core.workflow import Workflow
from repro.engines.base import WorkflowRun
from repro.rm.base import Job, JobState, ResourceRequest
from repro.rm.batch import BatchScheduler
from repro.simkernel import Environment


class BatchDagEngine:
    """Submit a workflow as one batch of dependency-chained jobs.

    Granularity is the batch system's: every task gets a whole-node
    job (``nodes=1``); the per-task walltime is sized from the nominal
    runtime times a safety factor.
    """

    engine_name = "batch-dag"

    def __init__(
        self,
        env: Environment,
        batch: BatchScheduler,
        walltime_factor: float = 3.0,
        min_walltime_s: float = 60.0,
    ):
        if walltime_factor <= 1.0:
            raise ValueError("walltime_factor must exceed 1.0")
        self.env = env
        self.batch = batch
        self.walltime_factor = walltime_factor
        self.min_walltime_s = min_walltime_s

    def run(self, workflow: Workflow) -> WorkflowRun:
        """Submit every task now; returns a live WorkflowRun."""
        run = WorkflowRun.start(workflow, self.engine_name, self.env)
        jobs: dict = {}
        for name in workflow.topological_order():
            spec = workflow.task(name)
            job = Job(
                request=ResourceRequest(
                    nodes=1,
                    cores_per_node=spec.cores,
                    gpus_per_node=spec.gpus,
                    memory_gb_per_node=spec.memory_gb,
                    walltime_s=max(
                        self.min_walltime_s,
                        spec.runtime_s * self.walltime_factor,
                    ),
                ),
                duration=spec.runtime_s,
                name=f"{workflow.name}/{name}",
                depends_on=[jobs[p] for p in workflow.parents(name)],
                user=workflow.name,
            )
            record = run.records[name]
            record.mark_submitted(self.env.now)
            self.batch.submit(job)
            jobs[name] = job
        self.env.process(self._collect(workflow, jobs, run),
                         name=f"batchdag:{workflow.name}")
        return run

    def _collect(self, workflow: Workflow, jobs: dict, run: WorkflowRun):
        yield self.env.all_of([j.completion for j in jobs.values()])
        ok = True
        for name, job in jobs.items():
            record = run.records[name]
            record.start_time = job.start_time
            record.end_time = job.end_time
            record.node_id = job.nodes[0].id if job.nodes else None
            if job.state == JobState.COMPLETED:
                record.state = "completed"
            elif job.state == JobState.CANCELLED:
                record.state = "cancelled"
                ok = False
            else:
                record.state = "failed"
                record.failure_causes.append(job.failure_cause)
                ok = False
        run.succeeded = ok
        run.finish(self.env.now)
