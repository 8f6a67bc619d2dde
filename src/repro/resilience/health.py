"""Per-node failure history and quarantine (a node circuit breaker).

The E4 failure cascade happens because the runtime keeps handing out a
dead node until enough tasks die on it.  :class:`NodeHealth` is the
shared memory that stops the bleeding: every execution layer reports
task failures per node, nodes that accumulate ``strikes`` failures are
*quarantined* (placed on an avoid-set the schedulers and the pilot
agent consult), and after a ``probation_s`` window the node gets a
fresh look — gray failures (a transient slowdown, a flapping link)
should not blacklist hardware forever.

Successes reset the strike counter (classic circuit-breaker
half-open→closed transition), so a node that recovers organically never
reaches quarantine.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Optional, Set

from repro.simkernel import Environment, register_ckpt_probe


@dataclass(frozen=True)
class QuarantineSpec:
    """Declarative quarantine parameters (carried by configs that are
    frozen dataclasses themselves, e.g. ``AgentConfig``)."""

    strikes: int = 3
    probation_s: Optional[float] = 600.0

    def __post_init__(self):
        if self.strikes < 1:
            raise ValueError("strikes must be >= 1")
        if self.probation_s is not None and self.probation_s <= 0:
            raise ValueError("probation_s must be positive (or None)")

    def build(self, env: Environment, name: str = "resilience") -> "NodeHealth":
        return NodeHealth(
            env, strikes=self.strikes, probation_s=self.probation_s, name=name
        )


@dataclass
class QuarantineEvent:
    """One quarantine episode of one node."""

    node_id: str
    quarantined_at: float
    released_at: Optional[float] = None  # None = still quarantined
    cause: Any = None

    @property
    def active(self) -> bool:
        return self.released_at is None


class NodeHealth:
    """Tracks per-node failure history; quarantines repeat offenders.

    Parameters
    ----------
    env:
        Simulation environment (time source + probation timers).
    strikes:
        Task failures on a node before it is quarantined.
    probation_s:
        Quarantine duration; after it the node is released with a clean
        slate.  ``None`` quarantines forever (the legacy blacklist).
    name:
        Component name for the ``quarantined_nodes`` gauge and the
        ``fault.quarantine`` trace events.
    """

    def __init__(
        self,
        env: Environment,
        strikes: int = 3,
        probation_s: Optional[float] = 600.0,
        name: str = "resilience",
    ):
        if strikes < 1:
            raise ValueError("strikes must be >= 1")
        if probation_s is not None and probation_s <= 0:
            raise ValueError("probation_s must be positive (or None)")
        self.env = env
        self.strikes = strikes
        self.probation_s = probation_s
        self.name = name
        self._strikes: dict[str, int] = defaultdict(int)
        self._quarantined: dict[str, QuarantineEvent] = {}
        #: Every quarantine episode, chronological (closed ones keep
        #: their release time — the MTTR input).
        self.log: list[QuarantineEvent] = []
        #: Total failures reported, per node (never reset).
        self.failure_counts: dict[str, int] = defaultdict(int)
        #: Callbacks ``fn(node_id)`` fired when a node leaves quarantine
        #: — runtimes blocked waiting for usable nodes subscribe so a
        #: probation release re-triggers their placement logic.
        self._release_watchers: list = []
        self._gauge = env.tracer.metrics.gauge(
            "quarantined_nodes", component=name, t0=env.now
        )
        register_ckpt_probe(env, f"health.{name}", self.ckpt_fingerprint)

    def ckpt_fingerprint(self) -> dict:
        """Strike counters and the quarantine set, for verification.

        Node ids are deterministic (spec-derived), so the full maps are
        safe to include; episode log length stands in for the log
        itself (timestamps inside it are covered by determinism of the
        counters plus the kernel clock fingerprint).
        """
        return {
            "strikes": sorted(
                (n, c) for n, c in self._strikes.items() if c
            ),
            "quarantined": sorted(self._quarantined),
            "failures": sorted(self.failure_counts.items()),
            "episodes": len(self.log),
        }

    # -- reporting -----------------------------------------------------------

    def record_failure(self, node_id: str, cause: Any = None) -> bool:
        """Report a task failure attributed to ``node_id``.

        Returns True when this report pushed the node into quarantine.
        """
        self.failure_counts[node_id] += 1
        if node_id in self._quarantined:
            return False
        self._strikes[node_id] += 1
        if self._strikes[node_id] < self.strikes:
            return False
        event = QuarantineEvent(
            node_id=node_id, quarantined_at=self.env.now, cause=cause
        )
        self._quarantined[node_id] = event
        self.log.append(event)
        self._gauge.set(self.env.now, len(self._quarantined))
        self.env.tracer.instant(
            "quarantine",
            category="fault.quarantine",
            component=self.name,
            tags={"node": node_id, "strikes": self._strikes[node_id]},
        )
        if self.probation_s is not None:
            self.env.process(
                self._probation(node_id), name=f"probation:{node_id}"
            )
        return True

    def record_success(self, node_id: str) -> None:
        """Report a task success on ``node_id`` — closes the breaker."""
        if node_id not in self._quarantined:
            self._strikes.pop(node_id, None)

    def watch_release(self, fn) -> None:
        """Subscribe ``fn(node_id)`` to quarantine-release events."""
        self._release_watchers.append(fn)

    def _probation(self, node_id: str):
        yield self.env.timeout(self.probation_s)
        self.release(node_id)

    def release(self, node_id: str) -> None:
        """Un-quarantine ``node_id`` with a clean strike slate."""
        event = self._quarantined.pop(node_id, None)
        if event is None:
            return
        event.released_at = self.env.now
        self._strikes.pop(node_id, None)
        self._gauge.set(self.env.now, len(self._quarantined))
        self.env.tracer.instant(
            "release",
            category="fault.quarantine",
            component=self.name,
            tags={"node": node_id},
        )
        for fn in self._release_watchers:
            fn(node_id)

    # -- queries -------------------------------------------------------------

    def is_quarantined(self, node_id: str) -> bool:
        return node_id in self._quarantined

    def quarantined_ids(self) -> Set[str]:
        """Node ids currently on the avoid-set."""
        return set(self._quarantined)

    def strikes_for(self, node_id: str) -> int:
        return self._strikes.get(node_id, 0)

    @property
    def quarantine_count(self) -> int:
        """Total quarantine episodes (including released ones)."""
        return len(self.log)

    def total_quarantine_time(self, until: Optional[float] = None) -> float:
        """Node-seconds spent quarantined (open episodes accrue until
        ``until``, default now)."""
        horizon = self.env.now if until is None else until
        return sum(
            (e.released_at if e.released_at is not None else horizon)
            - e.quarantined_at
            for e in self.log
        )

    def __repr__(self) -> str:
        return (
            f"<NodeHealth strikes>={self.strikes} "
            f"quarantined={sorted(self._quarantined)}>"
        )


__all__ = ["NodeHealth", "QuarantineEvent", "QuarantineSpec"]
