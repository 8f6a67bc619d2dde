"""Shared job abstractions and the placement core for resource managers."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.rm.util import OrderedSet
from repro.simkernel import register_ckpt_probe


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED)


class JobFailed(RuntimeError):
    """A job's payload raised, or its node(s) died without retry."""

    def __init__(self, job_id: str, cause: Any = None):
        super().__init__(f"Job {job_id} failed: {cause!r}")
        self.job_id = job_id
        self.cause = cause


class WalltimeExceeded(JobFailed):
    """The batch system killed the job at its walltime limit."""


@dataclass(frozen=True)
class ResourceRequest:
    """What a batch job asks the scheduler for (whole-node granularity).

    Mirrors an ``sbatch``/``bsub`` request: a node count, per-node core
    and GPU usage (informational — the whole node is granted), and a
    walltime limit after which the job is killed.
    """

    nodes: int = 1
    cores_per_node: int = 1
    gpus_per_node: int = 0
    memory_gb_per_node: float = 0.0
    walltime_s: float = 3600.0
    #: The fit-relevant projection of the request — the key of the
    #: batch pass's ``blocked`` set.  Two requests with equal placement
    #: classes fit exactly the same free pools; walltime and payload
    #: are irrelevant to fitting.
    placement_class: tuple = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        if self.nodes <= 0:
            raise ValueError("nodes must be positive")
        if self.cores_per_node <= 0:
            raise ValueError("cores_per_node must be positive")
        if self.gpus_per_node < 0 or self.memory_gb_per_node < 0:
            raise ValueError("gpus/memory must be non-negative")
        if self.walltime_s <= 0:
            raise ValueError("walltime_s must be positive")
        object.__setattr__(
            self,
            "placement_class",
            (
                self.nodes,
                self.cores_per_node,
                self.gpus_per_node,
                self.memory_gb_per_node,
            ),
        )

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node


@dataclass(eq=False, kw_only=True)
class Lifecycle:
    """Lifecycle fields of a scheduled unit (``Job``, ``Pod``), filled
    in by its scheduler, and the timings derived from them."""

    state: JobState = JobState.PENDING
    submit_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: Kernel event that triggers when the unit reaches a terminal state.
    completion: Any = None
    #: Why the unit failed (exception, "walltime", or a NodeFailureCause).
    failure_cause: Any = None

    @property
    def queue_wait(self) -> Optional[float]:
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def runtime(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time


_job_counter = itertools.count()


@dataclass(eq=False)  # identity semantics: jobs are mutable lifecycle objects
class Job(Lifecycle):
    """A batch job: a resource request plus a payload.

    The payload is either a fixed nominal ``duration`` (scaled by the
    slowest allocated node's speed factor) or a ``work`` generator
    factory ``work(env, job, nodes) -> generator`` for jobs that do
    their own internal orchestration (e.g. an EnTK pilot agent).
    """

    request: ResourceRequest
    duration: Optional[float] = None
    work: Optional[Callable] = None
    user: str = "anonymous"
    name: str = ""
    #: Resilient jobs survive the loss of individual allocated nodes
    #: (pilot jobs handle task-level failures themselves); non-resilient
    #: jobs fail when any of their nodes dies.
    resilient: bool = False
    #: SLURM-style ``afterok`` dependencies: this job becomes eligible
    #: only when every listed job COMPLETED; if any of them fails, this
    #: job is cancelled.  This is the resource-manager feature §3 notes
    #: WMSs leave unused ("on SLURM, the task dependency feature is not
    #: used") — see :class:`repro.engines.batchdag.BatchDagEngine` for
    #: the engine that exploits it.
    depends_on: list = field(default_factory=list)
    job_id: str = field(default_factory=lambda: f"job-{next(_job_counter):06d}")
    #: The granted nodes, filled in by the scheduler.
    nodes: list = field(default_factory=list)

    def __post_init__(self):
        if (self.duration is None) == (self.work is None):
            raise ValueError("Provide exactly one of duration= or work=")
        if self.duration is not None and self.duration < 0:
            raise ValueError("duration must be non-negative")
        if not self.name:
            self.name = self.job_id

    def __repr__(self) -> str:
        return f"<Job {self.job_id} {self.name!r} {self.state.value}>"


class SchedulerCore:
    """The placement core the batch and pod schedulers share.

    A policy subclass (:class:`~repro.rm.batch.BatchScheduler`,
    :class:`~repro.rm.kube.KubeScheduler`) decides *which* queued unit
    goes *where*; the core owns the machinery every decision runs on:

    - **One coalesced wake.**  Submits, completions, quarantine releases
      and policy events ``_kick`` a single ``_wake`` event, so N
      triggers landing on one simulated instant run exactly one
      scheduling pass.  The loop arms a fresh wake *before* each pass,
      so only a kick after the pass started (or during it) runs
      another; submits made before ``env.run()`` are handled by the
      start-up pass alone.
    - **One negative-fit rule.**  Each pass keeps a plain ``blocked``
      set of the resource classes that found no fit, and skips a class
      once it is in there.  Exact: binds only shrink capacity within a
      pass, and shrinking cannot create a fit.  A miss under the
      avoid-set is recorded; a miss under an extra caller-supplied
      ``exclude`` (the EASY reservation) says nothing about the class
      and is not.  Nothing carries over to the next pass.
    - **One avoid-set.**  Node ids from the optional
      :class:`~repro.resilience.NodeHealth`; quarantined nodes are
      excluded from every placement.  Assigning ``node_health`` — at
      construction or later, as the engines do — subscribes the
      scheduler to that object's quarantine releases exactly once.
    - **Submit and retire bookkeeping**, including the submit instant,
      the queue gauge and the span of each unit.
    """

    #: Differential-test knob: the reference subclasses turn the
    #: pass-local blocked set off to recover a full scan per unit.
    _memoize = True
    #: Trace names, set by each policy: component (also naming the
    #: scheduling process and checkpoint probe), span category, and the
    #: gauge tracking the queue length.  Each policy defines the pass,
    #: ``_try_schedule``, and names the scheduling process: its
    #: ``_scheduler_loop`` generator is ``yield from self._run_passes()``
    #: (profilers count passes per policy by that generator's name).
    _component: str
    _category: str
    _queue_gauge: str

    def __init__(self, env, cluster, node_health=None):
        self.env = env
        self.cluster = cluster
        self.running: OrderedSet = OrderedSet()
        self.finished: list = []
        self._wake = env.event()
        self._watched: set = set()
        self._node_health = None
        self.node_health = node_health
        env.process(self._scheduler_loop(), name=f"{self._component}-scheduler")
        register_ckpt_probe(env, f"rm.{self._component}", self.ckpt_fingerprint)

    def ckpt_fingerprint(self) -> dict:
        """Scheduler state for checkpoint verification.

        Identity-free on purpose: unit ids come from a *process-global*
        counter, so they differ between a fresh recording process and
        an in-process resume that ran other scenarios first.  Counts
        are per-run deterministic either way.
        """
        return {"running": len(self.running), "finished": len(self.finished)}

    @property
    def node_health(self):
        """Optional :class:`~repro.resilience.NodeHealth` whose
        quarantined nodes every placement avoids."""
        return self._node_health

    @node_health.setter
    def node_health(self, health) -> None:
        self._node_health = health
        if health is not None and health not in self._watched:
            # Event-driven: probation ending wakes the scheduler exactly
            # then.
            self._watched.add(health)
            health.watch_release(self._on_quarantine_release)

    def _avoid_ids(self):
        """Node ids no placement may use (the quarantine avoid-set)."""
        health = self._node_health
        return frozenset() if health is None else health.quarantined_ids()

    # -- wake ------------------------------------------------------------------

    def _run_passes(self):
        while True:
            self._wake = self.env.event()
            self._try_schedule()
            yield self._wake

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    def _on_quarantine_release(self, node_id: str) -> None:
        """Probation ended: the avoid-set shrank, so re-run the pass."""
        self._kick()

    # -- bookkeeping -----------------------------------------------------------

    def _set_queue_gauge(self, length: int) -> None:
        self.env.tracer.metrics.gauge(
            self._queue_gauge, component=self._component
        ).set(self.env.now, length)

    def _admit(self, unit, queue, tags: dict) -> None:
        """Submit bookkeeping: enqueue a pending ``unit`` and wake."""
        if unit.state != JobState.PENDING:
            raise ValueError(f"{unit} is not pending")
        unit.submit_time = self.env.now
        unit.completion = self.env.event()
        queue.append(unit)
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "submit", category=self._category, component=self._component, tags=tags
            )
            self._set_queue_gauge(len(queue))
        self._kick()

    def _launch(self, unit, queue, tags: dict) -> None:
        """Start bookkeeping: a queued ``unit`` begins running now."""
        queue.remove(unit)
        unit.state = JobState.RUNNING
        unit.start_time = self.env.now
        self.running.append(unit)
        tracer = self.env.tracer
        if tracer.enabled:
            self._set_queue_gauge(len(queue))
            unit._obs_span = tracer.start(
                unit.name, category=self._category, component=self._component, tags=tags
            )

    def _retire(self, unit, wake: bool = True) -> None:
        """Retire bookkeeping: a unit reached its terminal state."""
        unit.end_time = self.env.now
        if unit in self.running:
            self.running.remove(unit)
        self.finished.append(unit)
        span = getattr(unit, "_obs_span", None)
        if span is not None:
            span.tag(state=unit.state.value).finish()
        unit.completion.succeed(unit)
        if wake:
            self._kick()
