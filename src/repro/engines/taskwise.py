"""Task-at-a-time WMS engines (the Nextflow/Argo model).

The engine tracks dependency state itself and submits each ready task
to the resource manager as an individual pod.  Without a CWSI the
resource manager sees an undifferentiated pod stream; with one, every
submission carries workflow context the scheduler can exploit.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.core.workflow import Workflow
from repro.engines.base import DagDriver, Outcome, RetryingEngine, WorkflowRun
from repro.resilience import NodeHealth, RetryPolicy
from repro.rm.base import JobState
from repro.rm.kube import KubeScheduler, Pod
from repro.simkernel import Environment


class NextflowLikeEngine(RetryingEngine):
    """Submit each ready task as a pod the moment its parents complete.

    Parameters
    ----------
    env, scheduler:
        Simulation environment and the pod scheduler to submit to.
    cwsi:
        Optional Common Workflow Scheduler Interface.  When present the
        engine registers the workflow graph and announces submissions
        and completions, making the resource manager workflow-aware
        (the §3 integration).
    pod_overhead_s:
        Fixed startup cost added to every task (container pull/start);
        Argo's profile sets this higher.

    ``retry_policy`` and ``node_health`` are those of
    :class:`~repro.engines.base.RetryingEngine`.
    """

    engine_name = "nextflow-like"

    def __init__(
        self,
        env: Environment,
        scheduler: KubeScheduler,
        cwsi=None,
        pod_overhead_s: float = 0.0,
        right_size_memory: bool = False,
        retry_policy: RetryPolicy = RetryPolicy(),
        node_health: Optional[NodeHealth] = None,
    ):
        if right_size_memory and cwsi is None:
            raise ValueError("right_size_memory requires a CWSI")
        super().__init__(env, scheduler, retry_policy, node_health)
        self.cwsi = cwsi
        self.pod_overhead_s = pod_overhead_s
        #: Replace user memory requests with CWSI peak predictions
        #: once history exists (§3.4 resource allocation).
        self.right_size_memory = right_size_memory

    def run(self, workflow: Workflow) -> WorkflowRun:
        """Start executing ``workflow``; returns a live WorkflowRun.

        Drive the simulation (``env.run()``) to make progress.  The
        returned run's ``done`` attribute is a kernel event usable with
        ``env.run(until=run.done)``.
        """
        run = WorkflowRun.start(workflow, self.engine_name, self.env)
        if self.cwsi is not None:
            self.cwsi.register_workflow(workflow)
        self.env.process(self._drive(run), name=f"wms:{workflow.name}")
        return run

    # -- internals --------------------------------------------------------------

    def _drive(self, run: WorkflowRun):
        driver = DagDriver(self, run)
        yield from driver.drive(partial(self._submit, run, driver.report), self._settle)
        run.finish(self.env.now)

    def _settle(self, out: Outcome) -> None:
        pod = out.unit
        pod._engine_span.tag(state=pod.state.value).finish()
        if out.ok and self.cwsi is not None:
            self.cwsi.task_finished(pod.labels["workflow"], out.name, pod)

    def _submit(self, run: WorkflowRun, report, name: str) -> None:
        workflow = run.workflow
        spec = workflow.task(name)
        attempt = run.records[name].attempts
        memory_gb = spec.memory_gb
        if self.right_size_memory:
            memory_gb = self.cwsi.suggest_memory_gb(name, spec.memory_gb)
        pod = Pod(
            cores=spec.cores,
            gpus=spec.gpus,
            memory_gb=memory_gb,
            duration=spec.runtime_s + self.pod_overhead_s,
            name=f"{workflow.name}/{name}#{attempt}",
            labels={
                "workflow": workflow.name,
                "task": name,
                "attempt": attempt,
                # What the monitoring agent will observe (true peak).
                "peak_memory_gb": spec.true_peak_memory_gb,
            },
        )
        # Submit→terminal span: queue wait plus execution, one per
        # attempt (the rm.pod span underneath covers execution only).
        pod._engine_span = self.env.tracer.start(
            name,
            category="engine.task",
            component=self.engine_name,
            tags={"workflow": workflow.name, "attempt": attempt},
        )
        self.scheduler.submit(pod)
        pod.completion.callbacks.append(lambda _event: report(Outcome(
            name, pod.state == JobState.COMPLETED, pod.start_time, pod.end_time,
            pod.node.id if pod.node is not None else None, pod.failure_cause, pod,
        )))
        if self.cwsi is not None:
            self.cwsi.task_submitted(workflow.name, name, pod)


class ArgoLikeEngine(NextflowLikeEngine):
    """Argo profile: same task-at-a-time model, higher pod overhead.

    Argo runs each step in a fresh Kubernetes pod with init containers,
    so per-task startup cost is structurally larger than Nextflow's
    process reuse.
    """

    engine_name = "argo-like"

    def __init__(self, env, scheduler, cwsi=None, pod_overhead_s: float = 3.0):
        super().__init__(env, scheduler, cwsi, pod_overhead_s)
