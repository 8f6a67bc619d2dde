"""The Airflow big-worker strategy (§3.2) and its wastage accounting.

Airflow's Kubernetes mode "starts a big worker on every node for the
whole workflow execution and assigns tasks into these worker pods
bypassing Kubernetes' task assignment logic. [...] the big containers
will request resources for the entire workflow execution time
regardless of the actual load."  This engine reproduces that strategy
faithfully so the wastage can be measured (bench ``bench_airflow_waste``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.workflow import Workflow
from repro.engines.base import DagDriver, Outcome, RetryingEngine, WorkflowRun
from repro.resilience import NodeHealth, RetryPolicy
from repro.rm.kube import KubeScheduler, Pod
from repro.simkernel import Environment, Interrupt, Store


_POISON = object()


class AirflowLikeEngine(RetryingEngine):
    """One node-sized worker pod per node, held for the whole run.

    ``run()`` returns a :class:`WorkflowRun` whose ``stats`` include:

    - ``requested_core_seconds`` — cores held by workers × their
      lifetimes (what the cluster could not give anyone else),
    - ``used_core_seconds`` — cores × runtime actually consumed by
      tasks,
    - ``wastage`` — 1 − used/requested, the §3.2 inefficiency.
    """

    engine_name = "airflow-like"

    def __init__(
        self,
        env: Environment,
        scheduler: KubeScheduler,
        workers: Optional[int] = None,
        retry_policy: RetryPolicy = RetryPolicy(),
        node_health: Optional[NodeHealth] = None,
    ):
        super().__init__(env, scheduler, retry_policy, node_health)
        self.workers = workers

    def run(self, workflow: Workflow) -> WorkflowRun:
        run = WorkflowRun.start(workflow, self.engine_name, self.env)
        self.env.process(self._drive(run), name=f"airflow:{workflow.name}")
        return run

    # -- internals --------------------------------------------------------------

    def _drive(self, run: WorkflowRun):
        workflow = run.workflow
        cluster = self.scheduler.cluster
        n_workers = self.workers or len(cluster.up_nodes)
        queue = Store(self.env)
        driver = DagDriver(self, run)

        def work(env, pod, node):
            while True:
                item = yield queue.get()
                if item is _POISON:
                    return
                name, spec = item
                start = env.now
                try:
                    yield env.timeout(spec.runtime_s / node.effective_speed)
                except Interrupt as intr:
                    # Node died mid-task: report the failure and stop.
                    cause = intr.cause
                    node_id = getattr(cause, "node_id", None)
                    driver.report(Outcome(name, False, node_id=node_id, cause=cause))
                    raise
                driver.report(Outcome(name, True, start, env.now, node.id))

        worker_pods = []
        for i in range(n_workers):
            # Size each worker to the i-th node (round-robin over specs)
            # — "a big worker on every node".
            node = cluster.up_nodes[i % len(cluster.up_nodes)]
            pod = Pod(
                cores=node.spec.cores,
                gpus=node.spec.gpus,
                memory_gb=node.spec.memory_gb,
                work=work,
                name=f"{workflow.name}/worker-{i}",
                labels={"workflow": workflow.name, "role": "big-worker"},
            )
            self.scheduler.submit(pod)
            worker_pods.append(pod)

        try:
            yield from driver.drive(lambda n: queue.put((n, workflow.task(n))))
        finally:
            # Dismiss workers; they exit after draining the poison pills.
            for _ in worker_pods:
                yield queue.put(_POISON)
            yield self.env.all_of(
                [p.completion for p in worker_pods if p.completion is not None]
            )
            self._account(run, worker_pods)
            run.finish(self.env.now)

    @staticmethod
    def _account(run: WorkflowRun, worker_pods) -> None:
        requested = sum(
            p.cores * (p.runtime or 0.0)
            for p in worker_pods
            if p.start_time is not None
        )
        used = sum(
            run.workflow.task(r.name).cores * (r.runtime or 0.0)
            for r in run.records.values()
        )
        run.stats["requested_core_seconds"] = requested
        run.stats["used_core_seconds"] = used
        run.stats["wastage"] = 1.0 - (used / requested) if requested > 0 else 0.0
        run.stats["workers"] = len(worker_pods)
