"""The pilot agent: EnTK's executor inside a batch allocation.

Models the RADICAL-Pilot agent measured in §4.3:

- **Bootstrap** — a fixed startup overhead before any task runs (the
  85 s "OVH" slice of Fig 4).
- **Scheduler** — moves submitted tasks to the pending-launch queue at
  a bounded throughput (the 269 tasks/s initial slope of Fig 5's blue
  line).
- **Launcher** — serially places pending tasks onto free nodes at a
  slower throughput (the 51 tasks/s slope of the orange line).
- **Executors** — a task with a fixed ``duration`` runs off one kernel
  timer held by a small :class:`_TimedExec` handle; a ``work=`` task
  runs its generator under an ``exec:`` process
  (:meth:`PilotAgent._execute`).  Both register with their nodes as
  occupants, so injected node failures interrupt them.
- **Failure handling** — a task touching a dead node fails after a
  detection delay; dead nodes are blacklisted after ``node_strikes``
  task failures (modelling delayed failure propagation — with a lag,
  one node failure cascades into several task failures, the "eight
  tasks failed due to a single node failure" of §4.3).  Failed tasks
  are retried in follow-up waves that preserve submission order.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cluster.node import Node, NodeState, TimedOccupant
from repro.entk.pst import EnTask, TaskState
from repro.resilience import NodeHealth, QuarantineSpec, RetryPolicy
from repro.simkernel import (
    Environment,
    Interrupt,
    TimeSeriesMonitor,
    UtilizationTracker,
)


@dataclass(frozen=True)
class AgentConfig:
    """Tunable agent parameters (defaults = the Frontier run's rates)."""

    schedule_rate: float = 269.0   # tasks/s, submitted -> pending-launch
    launch_rate: float = 51.0      # tasks/s, pending-launch -> executing
    bootstrap_s: float = 85.0      # one-time agent startup overhead
    fail_detect_s: float = 10.0    # time for a dead-node launch to error out
    node_strikes: int = 1          # task failures before a node is blacklisted
    #: Resubmission waves per stage (``max_retries``), which failure
    #: classes to retry and the backoff between waves.
    retry_policy: RetryPolicy = RetryPolicy(max_retries=3)
    #: Optional probation for repeatedly-failing nodes, on top of the
    #: permanent ``node_strikes`` blacklist.
    quarantine: Optional[QuarantineSpec] = None

    def __post_init__(self):
        if self.schedule_rate <= 0 or self.launch_rate <= 0:
            raise ValueError("rates must be positive")
        if self.bootstrap_s < 0 or self.fail_detect_s < 0:
            raise ValueError("delays must be non-negative")
        if self.node_strikes < 1:
            raise ValueError("node_strikes must be >= 1")


class PilotAgent:
    """Task execution runtime over a set of allocated nodes.

    **Direct executor timers.**  A task with a fixed ``duration`` needs
    no generator of its own: the launcher hands it to a
    :class:`_TimedExec`, a :class:`~repro.cluster.node.TimedOccupant`
    that reproduces the event sequence of the ``exec:`` process it
    replaces minus that process's end event.  Its URGENT start runs the
    shared prologue (:meth:`_begin`) at the same position within the
    launch instant and schedules the ``fail_detect_s`` or
    ``duration / min(speed)`` timer with the same sequence number
    relative to the launcher's own ``timeout(period)``.  The timer's
    callback runs the shared epilogue (:meth:`_finish`) where the
    process used to be resumed, so the node-freed pulse and the wave
    countdown run at the same instant in the same order.
    A node failure's interrupt tombstones the timer and runs the
    epilogue with the cause.  Traces and outcomes are unchanged; with
    ``trace_kernel=True`` the per-task ``exec:`` ``kernel.process``
    spans disappear.

    ``work=`` tasks keep the process (:meth:`_execute`): their generator
    yields arbitrary events.

    **Wave countdown.**  A :meth:`run_stage` wave ends on a
    :class:`_WaveCountdown`, not an ``AllOf`` over per-task terminal
    events.  The task that counts it to zero succeeds one stand-in event
    where its terminal event was; the stand-in's callback succeeds
    ``done`` where the ``AllOf`` was.  Same two dispatch rounds, so the
    stage resumes at the same position within the same instant, minus
    one event and one callback per other task.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Iterable[Node],
        config: Optional[AgentConfig] = None,
        name: str = "pilot",
    ):
        self.env = env
        self.nodes = list(nodes)
        if not self.nodes:
            raise ValueError("PilotAgent needs at least one node")
        self.config = config or AgentConfig()
        self.name = name
        self.retry_policy = self.config.retry_policy
        #: Optional NodeHealth circuit breaker built from the config's
        #: QuarantineSpec; its quarantine set extends the blacklist.
        self.health: Optional[NodeHealth] = (
            self.config.quarantine.build(env, name=f"{name}-health")
            if self.config.quarantine is not None
            else None
        )
        if self.health is not None:
            self.health.watch_release(self._pulse_freed)

        self._free: list[Node] = list(self.nodes)
        self._blacklist: set = set()
        self._strikes: dict[str, int] = defaultdict(int)
        # (cores_per_node, gpus_per_node) -> how many pilot nodes fit.
        # The node set is fixed at construction, so validation is a dict
        # hit instead of a full node scan per task.
        self._fit_cache: dict[tuple[int, int], int] = {}
        self._node_freed = env.event()
        # Plain deques + wake events instead of kernel Stores: a put is
        # an append (no StorePut/StoreGet event pair per task), and the
        # loops wake only when their queue goes non-empty.  Hand-off
        # timing is identical — a Store put succeeds immediately at the
        # same instant the wake fires.
        self._submit_q: deque = deque()
        self._launch_q: deque = deque()
        self._submit_wake = env.event()
        self._launch_wake = env.event()
        self._started = False
        self._shutdown = False
        self._bootstrapped_at: Optional[float] = None
        self._loops: list = []
        #: In-flight executors in launch order (a dict, not a set, so
        #: ``shutdown`` interrupts them in that order).
        self._live_execs: dict = {}

        t0 = env.now
        total_cores = sum(n.spec.cores for n in self.nodes)
        total_gpus = sum(n.spec.gpus for n in self.nodes)
        #: Fig 5 blue line: tasks scheduled, waiting to be launched.
        self.pending_launch = TimeSeriesMonitor("pending_launch", t0=t0)
        #: Fig 5 orange line: tasks executing concurrently.
        self.executing = TimeSeriesMonitor("executing", t0=t0)
        #: Cumulative completed tasks.
        self.done_count = TimeSeriesMonitor("done", t0=t0)
        #: Cumulative scheduled / launched counts (throughput measures).
        self.scheduled_cum = TimeSeriesMonitor("scheduled_cum", t0=t0)
        self.launched_cum = TimeSeriesMonitor("launched_cum", t0=t0)
        #: Fig 4 core/GPU busy tracking.
        self.core_util = UtilizationTracker(total_cores, name="cores", t0=t0)
        self.gpu_util = (
            UtilizationTracker(total_gpus, name="gpus", t0=t0) if total_gpus else None
        )
        #: All task failures observed (task name, time, cause).
        self.failures: list[tuple] = []

        # Adopt the live monitors into the trace registry (no-op when
        # tracing is disabled) so exported traces carry the exact
        # series the agent records — no parallel accounting.
        registry = env.tracer.metrics
        for monitor in (
            self.pending_launch,
            self.executing,
            self.done_count,
            self.scheduled_cum,
            self.launched_cum,
            self.core_util,
        ):
            registry.register(monitor, component=self.name)
        if self.gpu_util is not None:
            registry.register(self.gpu_util, component=self.name)

    # -- public API ------------------------------------------------------------

    @property
    def bootstrap_overhead(self) -> Optional[float]:
        """Seconds spent bootstrapping (None until bootstrapped)."""
        if self._bootstrapped_at is None:
            return None
        return self.config.bootstrap_s

    def run_stage(self, tasks: list):
        """Process generator: run a set of independent tasks to completion.

        Retries failed tasks in order-preserving waves as the config's
        ``retry_policy`` allows.  Returns ``(done, failed)`` lists.

        A wave waits on its ``task._wave`` countdown (class docstring); a
        shutdown that strands queued tasks leaves it untriggered.
        """
        tasks = list(tasks)
        for task in tasks:
            self._validate_task(task)
        if not self._started:
            self._started = True
            boot_span = self.env.tracer.start(
                "bootstrap",
                category="entk.bootstrap",
                component=self.name,
                tags={"nodes": len(self.nodes)},
            )
            yield self.env.timeout(self.config.bootstrap_s)
            self._bootstrapped_at = self.env.now
            boot_span.finish()
            self._loops = [
                self.env.process(self._scheduler_loop(), name=f"{self.name}-sched"),
                self.env.process(self._launcher_loop(), name=f"{self.name}-launch"),
            ]

        wave = tasks
        for _wave_idx in range(self.retry_policy.max_retries + 1):
            if not wave or self._shutdown:
                break
            tracer = self.env.tracer
            traced = tracer.enabled
            countdown = _WaveCountdown(self.env, len(wave))
            for task in wave:
                task.state = TaskState.NEW
                task.submit_time = self.env.now
                task._wave = countdown
                # Whole-lifecycle span (submit → terminal); the pending
                # and exec child spans nest inside it.
                task._obs_span = (
                    tracer.start(
                        task.name,
                        category="entk.task",
                        component=self.name,
                        tags={"wave": _wave_idx},
                    )
                    if traced
                    else None
                )
                self._submit_q.append(task)
            if self._submit_q and not self._submit_wake.triggered:
                self._submit_wake.succeed()
            yield countdown.done
            failed = [t for t in wave if t.state == TaskState.FAILED]
            retryable = []
            for t in failed:
                cause = t.failure_causes[-1] if t.failure_causes else None
                if not self.retry_policy.should_retry(t.attempts, cause):
                    continue  # permanent/over-budget: stays FAILED
                t.reset_for_retry()
                retryable.append(t)
            if retryable:
                delay = max(
                    self.retry_policy.backoff_s(t.attempts, key=t.name)
                    for t in retryable
                )
                if delay > 0:
                    yield self.env.timeout(delay)
            wave = retryable
        done = [t for t in tasks if t.state == TaskState.DONE]
        failed = [t for t in tasks if t.state != TaskState.DONE]
        for t in failed:
            t.state = TaskState.FAILED
        return done, failed

    def _validate_task(self, task: EnTask) -> None:
        key = (task.cores_per_node, task.gpus_per_node)
        fitting = self._fit_cache.get(key)
        if fitting is None:
            fitting = sum(
                1
                for n in self.nodes
                if n.spec.cores >= task.cores_per_node
                and n.spec.gpus >= task.gpus_per_node
            )
            self._fit_cache[key] = fitting
        if fitting < task.nodes:
            raise ValueError(
                f"{task!r} needs {task.nodes} nodes with "
                f"{task.cores_per_node}c/{task.gpus_per_node}g; pilot has "
                f"only {fitting} such nodes"
            )

    # -- agent loops ---------------------------------------------------------------

    def shutdown(self, cause: str = "pilot-shutdown") -> None:
        """Stop the agent: kill loops and interrupt in-flight executors.

        Called when the surrounding pilot job terminates (walltime).
        Executors mark their tasks FAILED with ``cause`` so the next
        pilot job resubmits them.
        """
        self._shutdown = True
        for proc in self._loops:
            if proc.is_alive:
                proc.interrupt(cause=cause)
        for executor in list(self._live_execs):
            if executor.is_alive:
                executor.interrupt(cause=cause)

    def _scheduler_loop(self):
        period = 1.0 / self.config.schedule_rate
        env = self.env
        queue = self._submit_q
        try:
            while True:
                while not queue:
                    yield self._submit_wake
                    self._submit_wake = env.event()
                task = queue.popleft()
                yield env.timeout(period)
                now = env.now
                task.state = TaskState.SCHEDULED
                task.schedule_time = now
                self.pending_launch.increment(now, +1)
                self.scheduled_cum.increment(now, +1)
                tracer = env.tracer
                if tracer.enabled:
                    task._obs_pending = tracer.start(
                        "pending",
                        category="entk.pending",
                        component=self.name,
                        parent=getattr(task, "_obs_span", None),
                        tags={"task": task.name},
                    )
                self._launch_q.append(task)
                if not self._launch_wake.triggered:
                    self._launch_wake.succeed()
        except Interrupt:
            return

    def _launcher_loop(self):
        period = 1.0 / self.config.launch_rate
        env = self.env
        queue = self._launch_q
        try:
            while True:
                while not queue:
                    yield self._launch_wake
                    self._launch_wake = env.event()
                task = queue.popleft()
                yield env.timeout(period)
                nodes = self._take(task.nodes)
                while nodes is None:
                    yield self._node_freed
                    nodes = self._take(task.nodes)
                now = env.now
                self.pending_launch.increment(now, -1)
                self.launched_cum.increment(now, +1)
                pending_span = getattr(task, "_obs_pending", None)
                if pending_span is not None:
                    pending_span.finish()
                if task.duration is not None:
                    executor = _TimedExec(self, task, nodes)
                else:
                    executor = env.process(
                        self._execute(task, nodes),
                        name=f"exec:{task.name}#{task.attempts}",
                    )
                self._live_execs[executor] = None
        except Interrupt:
            return

    def _avoid_set(self) -> set:
        """Blacklisted plus health-quarantined node ids."""
        if self.health is None:
            return self._blacklist
        return self._blacklist | self.health.quarantined_ids()

    def _take(self, count: int) -> Optional[list]:
        """Take ``count`` non-avoided nodes from the free list, or
        ``None`` if too few are free (the launcher then waits for
        ``_node_freed``).  The avoid-set is the permanent blacklist plus
        any health quarantine.  Down-but-not-yet-avoided nodes are
        handed out like healthy ones (failure-detection lag)."""
        free = self._free
        if len(free) < count:
            return None
        avoid = self._avoid_set()
        if not avoid:
            # Fast path (the common case at Frontier scale): pop from
            # the end, no per-node filtering.
            taken = free[-count:]
            del free[-count:]
            return taken
        usable = [n for n in free if n.id not in avoid]
        if len(usable) < count:
            return None
        taken = usable[:count]
        for n in taken:
            free.remove(n)
        return taken

    def _release(self, nodes: list) -> None:
        if self._blacklist:
            nodes = [n for n in nodes if n.id not in self._blacklist]
        self._free.extend(nodes)
        self._pulse_freed()

    def _pulse_freed(self, node_id: Optional[str] = None) -> None:
        """Nodes were released, or a probation ended (the released node
        may already be sitting in the free list): a launcher blocked in
        ``_take`` re-checks."""
        if not self._node_freed.triggered:
            self._node_freed.succeed()
        self._node_freed = self.env.event()

    def _begin(self, task: EnTask, nodes: list, executor):
        """Executor prologue: count the attempt, mark the task
        EXECUTING, update the monitors, open the exec span and, when
        every node is up, register ``executor`` as their occupant.

        Returns ``(exec_span, dead)``: ``dead`` is the failure cause of a
        launch onto a dead node, which errors out after ``fail_detect_s``
        with nothing registered, else ``None``.
        """
        now = self.env.now
        task.attempts += 1
        task.state = TaskState.EXECUTING
        task.start_time = now
        task.executed_on = [n.id for n in nodes]
        self.executing.increment(now, +1)
        cores, gpus = task.total_cores, task.total_gpus
        self.core_util.acquire(now, cores)
        if self.gpu_util and gpus:
            self.gpu_util.acquire(now, gpus)
        tracer = self.env.tracer
        exec_span = (
            tracer.start(
                "exec",
                category="entk.exec",
                component=self.name,
                parent=getattr(task, "_obs_span", None),
                tags={"task": task.name, "attempt": task.attempts,
                      "cores": cores, "gpus": gpus},
            )
            if tracer.enabled
            else None
        )
        # Inlined ``is_up``/``register_occupant``: runs per node per task.
        for n in nodes:
            if n.state is not NodeState.UP:
                return exec_span, f"dead-node:{n.id}"
        for n in nodes:
            n.occupants[executor] = executor
        return exec_span, None

    def _finish(self, task: EnTask, nodes: list, executor, exec_span, cause) -> None:
        """Executor epilogue: release the nodes and monitors, record the
        outcome (``cause is None`` means DONE), strike dead nodes and
        count the task's wave down."""
        now = self.env.now
        for n in nodes:
            n.occupants.pop(executor, None)
        self.executing.increment(now, -1)
        self.core_util.release(now, task.total_cores)
        if self.gpu_util and task.total_gpus:
            self.gpu_util.release(now, task.total_gpus)
        task.end_time = now
        if cause is None:
            task.state = TaskState.DONE
            self.done_count.increment(now, +1)
            if self.health is not None:
                for n in nodes:
                    self.health.record_success(n.id)
        else:
            task.state = TaskState.FAILED
            task.failure_causes.append(cause)
            self.failures.append((task.name, now, cause))
            for n in nodes:
                if not n.is_up:
                    self._strikes[n.id] += 1
                    if self._strikes[n.id] >= self.config.node_strikes:
                        self._blacklist.add(n.id)
                    if self.health is not None:
                        self.health.record_failure(n.id, cause=cause)
        if exec_span is not None:
            exec_span.tag(state=task.state.value).finish()
        task_span = getattr(task, "_obs_span", None)
        if task_span is not None:
            task_span.tag(state=task.state.value).finish()
        self._release(nodes)
        self._live_execs.pop(executor, None)
        task._wave.count_down(task)

    def _execute(self, task: EnTask, nodes: list):
        """The ``exec:`` process of a ``work=`` task."""
        me = self.env.active_process
        exec_span, cause = self._begin(task, nodes, me)
        try:
            if cause is not None:
                yield self.env.timeout(self.config.fail_detect_s)
            else:
                yield self.env.process(
                    task.work(self.env, task, nodes), name=f"work:{task.name}"
                )
        except Interrupt as intr:
            cause = intr.cause
        except BaseException as exc:
            cause = exc
        finally:
            self._finish(task, nodes, me, exec_span, cause)


class _TimedExec(TimedOccupant):
    """Executor of a fixed-``duration`` task: one kernel timer, no process.

    A :class:`~repro.cluster.node.TimedOccupant`, registered with its
    nodes as its own occupant key.  See :class:`PilotAgent` for why the
    event sequence matches the process it replaces.
    """

    __slots__ = ("agent", "task", "nodes", "span", "attempt")

    def __init__(self, agent: PilotAgent, task: EnTask, nodes: list):
        self.agent = agent
        self.task = task
        self.nodes = nodes
        self.span = None
        # The launch-time count: ``_begin`` increments ``task.attempts``.
        self.attempt = task.attempts
        super().__init__(agent.env)

    @property
    def name(self) -> str:
        """Label of this executor's dispatch units in sanitizer reports,
        the name the ``exec:`` process of a ``work=`` task gets."""
        return f"exec:{self.task.name}#{self.attempt}"

    def _start(self, _event) -> None:
        agent, task, nodes = self.agent, self.task, self.nodes
        self.span, dead = agent._begin(task, nodes, self)
        if dead is None:
            self._arm(task.duration / min(n.effective_speed for n in nodes))
        else:
            self._arm(agent.config.fail_detect_s, dead)

    def _finish(self, cause) -> None:
        self.agent._finish(self.task, self.nodes, self, self.span, cause)


class _WaveCountdown:
    """A wave's unfinished-task count and the ``done`` event its stage
    waits on; one per wave, as pipelines share the agent."""

    __slots__ = ("left", "done")

    def __init__(self, env: Environment, count: int):
        self.left = count
        self.done = env.event()

    def count_down(self, task: EnTask) -> None:
        self.left -= 1
        if not self.left:
            last = self.done.env.event()
            last.callbacks.append(self.done.succeed)
            last.succeed(task)
