"""Nodes: the unit of hardware in a simulated cluster."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


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
        #: kernel process, or the pilot agent's timer-driven executor.
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
        ``interrupt(cause)`` method — a kernel :class:`Process`, or an
        executor handle that delivers the interrupt itself.  On
        :meth:`fail`, every live occupant gets ``interrupt(cause=
        NodeFailureCause(node_id))`` in registration order.
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


@dataclass(frozen=True)
class NodeFailureCause:
    """Interrupt cause delivered to processes on a failed node."""

    node_id: str
