"""Nodes: the unit of hardware in a simulated cluster."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.simkernel.events import URGENT


class NodeState(enum.Enum):
    """Lifecycle of a node as seen by the resource manager."""

    UP = "up"
    DOWN = "down"
    DRAINING = "draining"  # no new work; existing work finishes


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of a node type.

    Parameters
    ----------
    name:
        Node-type label, e.g. ``"frontier"``, ``"a1"``, ``"c6a.large"``.
    cores:
        Physical CPU cores available to user jobs.
    gpus:
        Accelerators on the node.
    memory_gb:
        Main memory in GiB.
    speed:
        Relative CPU speed factor.  A task with nominal duration ``d``
        runs in ``d / speed`` on this node — the heterogeneity knob used
        by the CWS scheduling experiments (E1) and the Lotaru-like
        runtime predictor.
    io_bandwidth_mbps:
        Local storage bandwidth in MB/s (EBS-like limit on cloud nodes,
        node-local SSD on HPC nodes); drives iowait behaviour (E5).
    labels:
        Free-form labels for scheduling constraints (e.g. Tarema node
        classes).
    """

    name: str
    cores: int
    gpus: int = 0
    memory_gb: float = 64.0
    speed: float = 1.0
    io_bandwidth_mbps: float = 500.0
    labels: tuple = ()

    def __post_init__(self):
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")
        if self.gpus < 0:
            raise ValueError(f"gpus must be non-negative, got {self.gpus}")
        if self.memory_gb <= 0:
            raise ValueError(f"memory_gb must be positive, got {self.memory_gb}")
        if self.speed <= 0:
            raise ValueError(f"speed must be positive, got {self.speed}")


@dataclass
class Allocation:
    """Resources granted on a single node to a single consumer.

    Cancellation-safe: ``release()`` is idempotent.
    """

    node: "Node"
    cores: int
    gpus: int = 0
    memory_gb: float = 0.0
    owner: Optional[str] = None
    _released: bool = field(default=False, repr=False)

    def release(self) -> None:
        """Return the held resources to the node."""
        if self._released:
            return
        self._released = True
        self.node._free(self)

    @property
    def released(self) -> bool:
        return self._released


class Node:
    """A single machine tracked at core/GPU/memory granularity.

    The node enforces non-oversubscription: allocation requests that do
    not fit raise :class:`ValueError` (callers are expected to check
    :meth:`fits` first — the scheduler owns admission policy).
    """

    def __init__(self, node_id: str, spec: NodeSpec):
        self.id = node_id
        self.spec = spec
        self.state = NodeState.UP
        #: Gray-failure knob: ``> 1`` divides the node's effective speed
        #: (thermal throttling, a dying disk, a noisy neighbour).  The
        #: fault injector sets it; executors read :attr:`effective_speed`.
        self.slowdown = 1.0
        self.free_cores = spec.cores
        self.free_gpus = spec.gpus
        self.free_memory_gb = spec.memory_gb
        #: Live allocations on this node.
        self.allocations: list[Allocation] = []
        #: Occupants to interrupt if this node fails — registered by
        #: whatever runtime placed work here (pilot agent, kubelet, ...).
        #: Any object with ``is_alive`` and ``interrupt(cause)``: a
        #: kernel process, or a :class:`TimedOccupant`.
        self.occupants: dict[Any, "object"] = {}
        #: Cumulative counters for provenance / tracing.
        self.total_allocations = 0
        self.failure_count = 0
        #: Callbacks ``(node, idle: bool)`` fired when the node enters or
        #: leaves the whole-node-idle state (UP with zero allocations).
        #: Free-node indexes (FreeNodePool) subscribe here so schedulers
        #: never have to rescan the cluster.
        self._idle_watchers: list = []

    # -- capacity queries ----------------------------------------------------

    @property
    def is_up(self) -> bool:
        return self.state == NodeState.UP

    @property
    def effective_speed(self) -> float:
        """Spec speed degraded by any injected slowdown factor."""
        return self.spec.speed / self.slowdown

    def fits(self, cores: int = 0, gpus: int = 0, memory_gb: float = 0.0) -> bool:
        """Whether a request fits in the node's *current* free capacity."""
        return (
            self.is_up
            and cores <= self.free_cores
            and gpus <= self.free_gpus
            and memory_gb <= self.free_memory_gb + 1e-9
        )

    def is_idle(self) -> bool:
        return not self.allocations

    # -- allocation ------------------------------------------------------------

    def allocate(
        self,
        cores: int = 0,
        gpus: int = 0,
        memory_gb: float = 0.0,
        owner: Optional[str] = None,
    ) -> Allocation:
        """Claim resources; raises ``ValueError`` if they do not fit."""
        if cores < 0 or gpus < 0 or memory_gb < 0:
            raise ValueError("Resource requests must be non-negative")
        if not self.fits(cores, gpus, memory_gb):
            raise ValueError(
                f"Request (cores={cores}, gpus={gpus}, mem={memory_gb}GiB) "
                f"does not fit on {self!r}"
            )
        self.free_cores -= cores
        self.free_gpus -= gpus
        self.free_memory_gb -= memory_gb
        alloc = Allocation(self, cores, gpus, memory_gb, owner=owner)
        self.allocations.append(alloc)
        self.total_allocations += 1
        if len(self.allocations) == 1:
            self._notify_idle(False)
        return alloc

    def _free(self, alloc: Allocation) -> None:
        if alloc in self.allocations:
            self.allocations.remove(alloc)
            self.free_cores += alloc.cores
            self.free_gpus += alloc.gpus
            self.free_memory_gb += alloc.memory_gb
            if not self.allocations and self.state == NodeState.UP:
                self._notify_idle(True)

    def _notify_idle(self, idle: bool) -> None:
        for watcher in self._idle_watchers:
            watcher(self, idle)

    # -- occupant registration (for fault injection) ----------------------------

    def register_occupant(self, key: Any, process) -> None:
        """Register an occupant to interrupt if this node fails.

        ``process`` is any object with an ``is_alive`` flag and an
        ``interrupt(cause)`` method: a kernel :class:`Process`, or a
        :class:`TimedOccupant` that delivers the interrupt itself.  The
        timed occupants are the pilot agent's ``duration=`` task
        executor (registered under itself) and the batch scheduler's
        ``duration=`` job handle (registered under the job id, as the
        job's ``run:`` process was).  On :meth:`fail`, every live
        occupant gets ``interrupt(cause=NodeFailureCause(node_id))`` in
        registration order.
        """
        self.occupants[key] = process

    def unregister_occupant(self, key: Any) -> None:
        self.occupants.pop(key, None)

    # -- failure handling ---------------------------------------------------------

    def fail(self) -> list:
        """Mark the node DOWN; return the interrupted occupants.

        All live allocations are force-released (the hardware is gone)
        and every registered occupant is interrupted with this node as
        the cause.
        """
        self.state = NodeState.DOWN
        self.failure_count += 1
        self._notify_idle(False)
        for alloc in list(self.allocations):
            alloc.release()
        victims = list(self.occupants.values())
        self.occupants.clear()
        for proc in victims:
            if getattr(proc, "is_alive", False):
                proc.interrupt(cause=NodeFailureCause(self.id))
        return victims

    def recover(self) -> None:
        """Bring the node back UP with full free capacity."""
        self.state = NodeState.UP
        self.slowdown = 1.0  # replacement/repair comes back at full speed
        self.free_cores = self.spec.cores
        self.free_gpus = self.spec.gpus
        self.free_memory_gb = self.spec.memory_gb
        if not self.allocations:
            self._notify_idle(True)

    def __repr__(self) -> str:
        return (
            f"<Node {self.id} ({self.spec.name}) {self.state.value} "
            f"free={self.free_cores}c/{self.free_gpus}g/"
            f"{self.free_memory_gb:g}GiB>"
        )


class TimedOccupant:
    """A node occupant that runs off one kernel timer, not a process.

    The base of the runtimes' fixed-duration executors.  It reproduces
    the event sequence of the generator process it replaces, minus that
    process's end event (which had no waiter and no callbacks):

    - *Start.*  Construction schedules one URGENT event at the current
      instant, exactly where ``env.process`` put the process's
      ``Initialize``.  Its callback runs ``_start`` (the prologue),
      which calls :meth:`_arm` to schedule the one timer.
    - *Finish.*  The timer's callback ends the occupant in the dispatch
      where the process used to be resumed, with the timer's value as
      the failure cause (``None`` is success).
    - *Interrupts.*  ``interrupt(cause)`` schedules an URGENT event at
      ``now``, as ``Process.interrupt`` does.  Its delivery is a no-op
      once the occupant has ended, or when :meth:`_absorbs` keeps it
      running on the same timer.  Otherwise it tombstones the timer's
      callback slot (the orphaned timer still fires as a no-op, like
      the abandoned timeout of an interrupted process) and ends the
      occupant with ``cause``, which must not be ``None`` (that means
      success; a node failure passes a :class:`NodeFailureCause`).  An
      interrupt issued at the timer's instant, before the timer is
      dispatched, is URGENT and so wins, as it did against the process.

    Subclasses define ``_start`` and ``_finish(cause)``, and a ``name``
    that labels their dispatch units in sanitizer reports.
    """

    __slots__ = ("env", "timer", "is_alive")

    def __init__(self, env):
        self.env = env
        self.timer = None
        self.is_alive = True
        start = env.event()
        start.callbacks.append(self._start)
        start.succeed(priority=URGENT)

    def _arm(self, delay: float, cause=None) -> None:
        """Schedule the timer that ends the occupant with ``cause``."""
        self.timer = self.env.timeout(delay, cause)
        self.timer.callbacks.append(self._end)

    def _absorbs(self, cause) -> bool:
        """Whether the occupant survives the interrupt ``cause``."""
        return False

    def interrupt(self, cause=None) -> None:
        """End the occupant with ``cause`` at the current instant."""
        event = self.env.event()
        event.callbacks.append(self._interrupted)
        event.succeed(cause, priority=URGENT)

    def _interrupted(self, event) -> None:
        if self.is_alive and not self._absorbs(event.value):
            self.timer.callbacks[0] = None  # tombstone: the timer fires as a no-op
            self._end(event)

    def _end(self, event) -> None:
        self.is_alive = False
        self._finish(event.value)


@dataclass(frozen=True)
class NodeFailureCause:
    """Interrupt cause delivered to processes on a failed node."""

    node_id: str
