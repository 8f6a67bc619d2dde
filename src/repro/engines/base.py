"""Shared engine records, result types and the DAG driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, NamedTuple, Optional

from repro.core.workflow import Workflow
from repro.resilience import NodeHealth, RetryPolicy


class EngineError(RuntimeError):
    """Workflow execution aborted (task exhausted its retries...)."""


@dataclass
class TaskRecord:
    """Execution record for one task within a run."""

    name: str
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    node_id: Optional[str] = None
    attempts: int = 0
    state: str = "pending"
    failure_causes: list = field(default_factory=list)

    def mark_submitted(self, t: float) -> None:
        """Count one (re)submission.

        Every engine routes submissions through here so ``attempts`` and
        :meth:`WorkflowRun.retried_tasks` mean the same thing everywhere:
        ``attempts`` is the number of times the task was handed to the
        substrate, and ``submit_time`` is the *first* submission.
        """
        self.attempts += 1
        if self.submit_time is None:
            self.submit_time = t
        self.state = "submitted"

    @property
    def runtime(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def queue_wait(self) -> Optional[float]:
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time


@dataclass
class WorkflowRun:
    """Outcome of executing one workflow through an engine.

    ``makespan`` is submission-to-last-completion — the quantity the
    CWS evaluation (E1) reports reductions of.
    """

    workflow: Workflow
    engine: str
    t_submit: float = 0.0
    t_done: Optional[float] = None
    records: dict = field(default_factory=dict)
    succeeded: bool = False
    #: Engine-specific extras (e.g. big-worker wastage metrics).
    stats: dict = field(default_factory=dict)
    #: Kernel event triggering when the run finishes (set by engines).
    done: Any = None

    @classmethod
    def start(cls, workflow: Workflow, engine: str, env) -> "WorkflowRun":
        """Validate ``workflow`` and open a live run at ``env.now``: a
        pending record per task and an untriggered ``done`` event."""
        workflow.validate()
        records = {name: TaskRecord(name=name) for name in workflow.tasks}
        return cls(workflow, engine, env.now, records=records, done=env.event())

    def finish(self, t: float) -> None:
        """Close the run at simulated time ``t`` and trigger ``done``."""
        self.t_done = t
        self.done.succeed(self)

    @property
    def makespan(self) -> Optional[float]:
        if self.t_done is None:
            return None
        return self.t_done - self.t_submit

    def record(self, name: str) -> TaskRecord:
        return self.records[name]

    def total_task_runtime(self) -> float:
        """Sum of task runtimes — lower-bound work the run performed."""
        return sum(r.runtime or 0.0 for r in self.records.values())

    def total_queue_wait(self) -> float:
        return sum(r.queue_wait or 0.0 for r in self.records.values())

    def retried_tasks(self) -> list:
        return [r.name for r in self.records.values() if r.attempts > 1]

    def __repr__(self) -> str:
        status = "ok" if self.succeeded else "failed/running"
        span = f"{self.makespan:.1f}s" if self.makespan is not None else "?"
        return (
            f"<WorkflowRun {self.workflow.name!r} via {self.engine} "
            f"{status} makespan={span}>"
        )


class Outcome(NamedTuple):
    """How one attempt ended, as an engine reports it to a :class:`DagDriver`.

    ``node_id`` is where a success ran, or the node a failure is charged
    to; ``unit`` is the engine's own handle on the attempt (its pod).
    """

    name: str
    ok: bool
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    node_id: Optional[str] = None
    cause: Any = None
    unit: Any = None


class RetryingEngine:
    """Base of the engines that retry failed tasks themselves.

    ``retry_policy`` defaults to retrying any failure twice without
    backoff.  ``node_health`` is fed task outcomes, and the scheduler
    avoids the nodes it quarantines.
    """

    def __init__(
        self,
        env,
        scheduler,
        retry_policy: RetryPolicy = RetryPolicy(),
        node_health: Optional[NodeHealth] = None,
    ):
        self.env = env
        self.scheduler = scheduler
        self.retry_policy = retry_policy
        self.node_health = node_health
        if node_health is not None:
            scheduler.node_health = node_health


class DagDriver:
    """One workflow's dependency loop, for a :class:`RetryingEngine`.

    Each task counts down its unfinished parents, so a completion costs
    O(out-degree), not a scan of the DAG.  The engine hands attempts to
    its substrate with ``launch(name)`` and reports their ends through
    :meth:`report`, the completion channel: a list plus one wake event,
    re-armed on each wait.  Each wake settles every outcome reported so
    far, in launch order, through one epilogue.  A failed attempt that
    may retry is relaunched inline after its backoff; then the tasks
    that became ready are launched in sorted-name order, the order
    :meth:`Workflow.ready_tasks` returns.
    """

    def __init__(self, engine: RetryingEngine, run: WorkflowRun):
        self.engine = engine
        self.run = run
        self._reported: list = []
        self._wake = None
        #: Launch number of each task's attempt in flight (one at most);
        #: its size is the count of attempts in flight.
        self._seq: dict = {}

    def report(self, outcome: Outcome) -> None:
        """Hand over a finished attempt; harmless once the run is over."""
        self._reported.append((self._seq[outcome.name], outcome))
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def drive(self, launch: Callable[[str], Any], settle: Callable = lambda out: None):
        """The loop, as a generator for the engine's process.

        ``settle(outcome)`` opens each outcome's epilogue.  Sets
        ``run.succeeded`` (and ``run.stats["error"]`` when a task runs
        out of retries); closing the run is left to the engine.
        """
        engine, run, env = self.engine, self.run, self.engine.env
        workflow, records = run.workflow, run.records
        policy, health = engine.retry_policy, engine.node_health
        unfinished = {name: len(workflow.parents(name)) for name in workflow.tasks}
        in_flight, launches = self._seq, count()

        def submit(name: str) -> None:
            in_flight[name] = next(launches)
            records[name].mark_submitted(env.now)
            launch(name)

        try:
            ready = workflow.roots()
            # No deadlock branch: each countdown of a validated, acyclic DAG reaches 0.
            while ready or in_flight:
                for name in sorted(ready):
                    submit(name)
                self._wake = wake = env.event()
                if self._reported:
                    wake.succeed()
                yield wake
                batch, self._reported = sorted(self._reported), []
                ready = []
                for _, out in batch:
                    name, record = out.name, records[out.name]
                    del in_flight[name]
                    settle(out)
                    if out.ok:
                        record.state = "completed"
                        record.start_time, record.end_time = out.start_time, out.end_time
                        record.node_id = out.node_id
                        if health is not None:
                            health.record_success(out.node_id)
                        for child in workflow.children(name):
                            unfinished[child] -= 1
                            if not unfinished[child]:
                                ready.append(child)
                        continue
                    record.failure_causes.append(out.cause)
                    if health is not None and out.node_id is not None:
                        health.record_failure(out.node_id, cause=out.cause)
                    if not policy.should_retry(record.attempts, out.cause):
                        record.state = "failed"
                        raise EngineError(
                            f"Task {name!r} failed {record.attempts} times "
                            f"({policy.classify(out.cause).value}): {out.cause!r}"
                        )
                    delay = policy.backoff_s(record.attempts, key=name)
                    if delay > 0:
                        yield env.timeout(delay)
                    submit(name)
            run.succeeded = True
        except EngineError as exc:
            run.stats["error"] = str(exc)
