"""Kubernetes-like pod scheduler with pluggable strategies.

Pods request cores/GPUs/memory (not whole nodes) and are bin-packed
onto the cluster.  The default behaviour is the workflow-blind FIFO +
best-fit the paper's §3 describes as the status quo ("Kubernetes then
schedules them in a FIFO manner").  :class:`SchedulingStrategy` is the
extension point the Common Workflow Scheduler installs into — exactly
where Fig 2 places the CWS inside the resource manager.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.simkernel import Environment, Interrupt
from repro.cluster import Cluster, Node
from repro.rm.base import JobState, Lifecycle, SchedulerCore
from repro.rm.util import OrderedSet


class PodFailed(RuntimeError):
    """A pod's payload raised or its node died."""

    def __init__(self, pod_name: str, cause: Any = None):
        super().__init__(f"Pod {pod_name} failed: {cause!r}")
        self.pod_name = pod_name
        self.cause = cause


_pod_counter = itertools.count()


@dataclass(eq=False)  # identity semantics: pods are mutable lifecycle objects
class Pod(Lifecycle):
    """A schedulable unit of work at container granularity.

    ``duration`` is the *nominal* runtime on a speed-1.0 node; the
    actual runtime is ``duration / node.spec.speed``.  ``labels`` carry
    workflow context (workflow id, task id, input sizes) — opaque to
    the vanilla scheduler, meaningful to CWS strategies.
    """

    cores: int = 1
    gpus: int = 0
    memory_gb: float = 1.0
    duration: Optional[float] = None
    work: Optional[Callable] = None
    name: str = field(default_factory=lambda: f"pod-{next(_pod_counter):06d}")
    labels: dict = field(default_factory=dict)
    node: Optional[Node] = None

    def __post_init__(self):
        if (self.duration is None) == (self.work is None):
            raise ValueError("Provide exactly one of duration= or work=")
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.gpus < 0 or self.memory_gb < 0:
            raise ValueError("gpus/memory must be non-negative")

    def __repr__(self) -> str:
        return f"<Pod {self.name} {self.state.value} {self.cores}c/{self.memory_gb:g}GiB>"


class SchedulingStrategy:
    """Hook pair the scheduler consults each scheduling cycle.

    Subclass and override either method; the base class implements the
    workflow-blind defaults (FIFO order, best-fit-by-cores placement).
    """

    name = "base"

    def prioritize(self, pending: list[Pod], scheduler: "KubeScheduler") -> list[Pod]:
        """Order pending pods; earlier pods get first pick of nodes.

        Called once per pass; the order must not depend on binds made
        in that pass."""
        return pending

    def select_node(
        self, pod: Pod, candidates: list[Node], scheduler: "KubeScheduler"
    ) -> Optional[Node]:
        """Choose among nodes that fit the pod (best fit by free cores).

        A strategy may return ``None`` to *decline* placing this pod in
        this cycle (delay scheduling: wait for a preferred node to free
        up).  The scheduler re-evaluates on the next capacity change;
        a declining strategy whose patience is *time*-bounded must also
        implement :meth:`wake_deadline_s` so the expiry is honoured
        even when no capacity changes — declining cannot deadlock.
        """
        return min(candidates, key=lambda n: (n.free_cores, n.id))

    def wake_deadline_s(
        self, pod: Pod, scheduler: "KubeScheduler"
    ) -> Optional[float]:
        """Absolute simulated time at which a pod this strategy just
        *declined* should be reconsidered even if no capacity-change
        signal arrives (e.g. delay-scheduling patience expiring).  The
        scheduler arms one exact one-shot timer for the earliest such
        deadline — there is no periodic recheck poll.  ``None`` (the
        default) means capacity/submit/quarantine signals suffice."""
        return None

    def stage_cost_s(self, pod: Pod, node: Node, scheduler: "KubeScheduler") -> float:
        """Extra seconds the pod pays before running on ``node``
        (e.g. pulling remote input data).  Workflow-blind default: 0.
        Data-locality strategies override this; the scheduler charges
        it at bind time."""
        return 0.0


class FifoStrategy(SchedulingStrategy):
    """Explicit name for the baseline (identical to the base class)."""

    name = "fifo"


class KubeScheduler(SchedulerCore):
    """Bin-packing pod scheduler over a heterogeneous cluster.

    Fully event-driven on the :class:`~repro.rm.base.SchedulerCore`
    wake: submits, pod completions, quarantine releases and strategy
    swaps kick it — there is no fixed ``recheck_s`` polling tick.
    Strategy declines with a time-bounded patience are honoured through
    the :meth:`SchedulingStrategy.wake_deadline_s` hook: the scheduler
    arms one exact one-shot timer for the earliest requested deadline.

    Each wake is one pass: prioritize once, then walk the order once,
    binding each pod that fits.  A pod class (cores, gpus, memory) with
    zero fitting nodes outside the avoid-set goes into the pass's
    ``blocked`` set, so the rest of the pass skips its O(nodes)
    candidate scan.  That places exactly what re-ordering
    after every bind would: binds only shrink capacity, so a blocked or
    declined pod stays so (a locality cost is a minimum over fewer
    candidates; its patience clock does not move), and every shipped
    order is a stable sort by a key of the pod and the workflow store.
    """

    _component = "kube"
    _category = "rm.pod"
    _queue_gauge = "pending_pods"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        strategy: Optional[SchedulingStrategy] = None,
        node_health=None,
    ):
        super().__init__(env, cluster, node_health)
        self.strategy = strategy or FifoStrategy()
        self.pending: OrderedSet = OrderedSet()
        #: Earliest armed strategy wake deadline (inf = none armed).
        self._deadline_armed_at = float("inf")

    def ckpt_fingerprint(self) -> dict:
        return {
            **super().ckpt_fingerprint(),
            "pending": len(self.pending),
            # inf = no deadline armed; keep the JSON strict-parseable.
            "deadline_armed_at": (
                None
                if self._deadline_armed_at == float("inf")
                else self._deadline_armed_at
            ),
        }

    # -- client API ------------------------------------------------------------

    def submit(self, pod: Pod) -> Pod:
        """Enqueue a pod; ``pod.completion`` triggers at terminal state."""
        self._admit(pod, self.pending, {"pod": pod.name, "cores": pod.cores})
        return pod

    def set_strategy(self, strategy: SchedulingStrategy) -> None:
        """Swap the scheduling strategy (how CWS installs itself)."""
        self.strategy = strategy
        self._kick()

    # -- scheduling loop ------------------------------------------------------------

    def _scheduler_loop(self):
        yield from self._run_passes()

    def _try_schedule(self) -> None:
        if not self.pending:
            return
        deadline = float("inf")  # earliest strategy-requested re-look
        avoid = self._avoid_ids()
        blocked: set = set()  # pod classes with no fit in this pass
        for pod in self.strategy.prioritize(list(self.pending), self):
            key = (pod.cores, pod.gpus, pod.memory_gb)
            if key in blocked:
                continue
            candidates = [
                n
                for n in self.cluster.nodes
                if n.id not in avoid and n.fits(pod.cores, pod.gpus, pod.memory_gb)
            ]
            if not candidates:
                if self._memoize:
                    blocked.add(key)
                continue
            node = self.strategy.select_node(pod, candidates, self)
            if node is None:  # delay scheduling: pod waits
                when = self.strategy.wake_deadline_s(pod, self)
                if when is not None and self.env.now < when < deadline:
                    deadline = when
                continue
            self._bind(pod, node)
        if deadline < self._deadline_armed_at:
            # One exact one-shot timer for the earliest patience expiry
            # — event-driven, not a polling tick.
            self._deadline_armed_at = deadline
            self.env.process(self._deadline_wake(deadline), name="kube-deadline")

    def _deadline_wake(self, at: float):
        yield self.env.timeout(at - self.env.now)
        self._deadline_armed_at = float("inf")
        self._kick()

    # -- pod execution ---------------------------------------------------------------

    def _bind(self, pod: Pod, node: Node) -> None:
        pod.node = node
        self._launch(
            pod,
            self.pending,
            {
                "node": node.id,
                "cores": pod.cores,
                "gpus": pod.gpus,
                "strategy": self.strategy.name,
            },
        )
        # Allocate synchronously so this scheduling pass sees the node's
        # reduced capacity before placing the next pod.
        alloc = node.allocate(
            cores=pod.cores, gpus=pod.gpus, memory_gb=pod.memory_gb, owner=pod.name
        )
        self.env.process(self._run_pod(pod, node, alloc), name=f"pod:{pod.name}")

    def _run_pod(self, pod: Pod, node: Node, alloc):
        self.cluster.track_acquire(cores=pod.cores, gpus=pod.gpus)
        me = self.env.active_process
        node.register_occupant(pod.name, me)
        inner = None
        try:
            stage_s = self.strategy.stage_cost_s(pod, node, self)
            if stage_s > 0:
                pod.labels["stage_cost_s"] = stage_s
                yield self.env.timeout(stage_s)
            if pod.duration is not None:
                yield self.env.timeout(pod.duration / node.effective_speed)
            else:
                inner = self.env.process(
                    pod.work(self.env, pod, node), name=f"podwork:{pod.name}"
                )
                yield inner
            pod.state = JobState.COMPLETED
        except Interrupt as intr:
            pod.state = JobState.FAILED
            pod.failure_cause = intr.cause
            # Propagate into the work generator so it stops consuming
            # (simulated) resources on a node that no longer exists,
            # absorbing its outcome.
            if inner is not None and inner.is_alive:
                inner.interrupt(cause=intr.cause)
                try:
                    yield inner
                # simlint: disable=RES001 -- kill-path drain: pod already marked FAILED with its classified cause; the work generator's own outcome is deliberately absorbed
                except BaseException:
                    pass
        except BaseException as exc:
            pod.state = JobState.FAILED
            pod.failure_cause = exc
        finally:
            node.unregister_occupant(pod.name)
            alloc.release()
            self.cluster.track_release(cores=pod.cores, gpus=pod.gpus)
            self._retire(pod)
