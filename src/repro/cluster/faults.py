"""Fault injection: node crashes, recoveries, and gray failures.

The EnTK section of the paper (§4.3) reports that a single node failure
on Frontier killed eight tasks, all of which EnTK automatically
resubmitted.  :class:`FaultInjector` reproduces that scenario: it is a
kernel process that takes nodes down on a schedule (deterministic) or
stochastically (seeded RNG), interrupting whatever runs there, and
optionally brings them back after a downtime.

Beyond clean crashes it also injects the *gray* failures production
systems actually see — node slowdowns (``slowdowns=``): the node stays
up but its effective speed drops by a factor for a window, so work
placed there straggles instead of dying.  Degraded transfers and site
outages live with their substrates (:mod:`repro.data.transfer`,
:mod:`repro.jaws.service`); everything is seeded and schedulable.

Schedules are validated at construction time: unknown node ids and
times in the past raise :class:`ValueError` immediately instead of
killing the simulation obscurely from inside a kernel process mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.simkernel import Environment, register_ckpt_probe
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node


@dataclass(frozen=True)
class NodeFailure:
    """Record of one injected failure."""

    time: float
    node_id: str
    victims: int
    recovered_at: Optional[float] = None


@dataclass(frozen=True)
class GrayFault:
    """Record of one injected slowdown window."""

    time: float
    node_id: str
    factor: float
    until: Optional[float] = None  # None = degraded forever


class FaultInjector:
    """Injects node failures and gray faults into a cluster.

    Modes, combinable:

    - **Scheduled crashes**: ``schedule=[(time, node_id), ...]`` fails
      exactly those nodes at those times (used to reproduce E4's
      single-node failure deterministically).
    - **Stochastic crashes**: ``mtbf`` (mean time between failures
      across the whole cluster) draws exponential inter-failure times
      and uniform node choices from the seeded generator.
    - **Scheduled slowdowns**: ``slowdowns=[(time, node_id, factor,
      duration), ...]`` degrades a node's effective speed by ``factor``
      for ``duration`` seconds (``None`` = forever).  The node stays UP;
      already-running work is unaffected (the sim commits to a runtime
      at task start) but everything placed there afterwards straggles.

    Failed nodes recover after ``downtime`` simulated seconds (set
    ``downtime=None`` to keep them down forever).

    What was injected is logged in :attr:`failures` and
    :attr:`gray_faults`; the tasks a crash kills show up in the trace
    as retried attempts of their runtime.
    """

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        schedule: Optional[Sequence[tuple[float, str]]] = None,
        mtbf: Optional[float] = None,
        downtime: Optional[float] = 600.0,
        rng: Optional[np.random.Generator] = None,
        slowdowns: Optional[Sequence[tuple]] = None,
    ):
        if mtbf is not None and mtbf <= 0:
            raise ValueError("mtbf must be positive")
        self.env = env
        self.cluster = cluster
        self.downtime = downtime
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: Chronological log of injected failures.
        self.failures: list[NodeFailure] = []
        #: Chronological log of injected slowdowns.
        self.gray_faults: list[GrayFault] = []
        for time, node_id in self._validated(schedule or (), arity=2):
            env.process(
                self._scheduled_failure(time, node_id),
                name=f"fault@{time}:{node_id}",
            )
        for entry in self._validated(slowdowns or (), arity=4):
            time, node_id, factor, duration = entry
            if factor <= 1.0:
                raise ValueError(
                    f"slowdown factor must exceed 1.0, got {factor}"
                )
            if duration is not None and duration <= 0:
                raise ValueError("slowdown duration must be positive (or None)")
            env.process(
                self._scheduled_slowdown(time, node_id, factor, duration),
                name=f"gray@{time}:{node_id}",
            )
        if mtbf is not None:
            env.process(self._stochastic_failures(mtbf), name="fault-injector")
        register_ckpt_probe(env, f"faults.{cluster.name}", self.ckpt_fingerprint)

    def ckpt_fingerprint(self) -> dict:
        """Injection history + RNG stream position for verification.

        The RNG stream *is* the remaining fault schedule in stochastic
        mode, so its bit-generator state (hashed — the raw 128-bit
        integers are not float-safe JSON) must agree between the
        recorded run and the resumed one at the same instant.
        """
        import hashlib
        import json as _json

        state = _json.dumps(
            self.rng.bit_generator.state, sort_keys=True, default=str
        )
        # Nodes still DOWN whose recovery is scheduled.
        pending = {
            f.node_id
            for f in self.failures
            if f.recovered_at is not None
            and f.recovered_at >= self.env.now
            and not self.cluster.node(f.node_id).is_up
        }
        return {
            "failures": len(self.failures),
            "gray_faults": len(self.gray_faults),
            "pending_recoveries": sorted(pending),
            "rng_sha": hashlib.sha256(state.encode()).hexdigest(),
        }

    def _validated(self, entries: Sequence, arity: int) -> list:
        """Constructor-time schedule validation: reject past times and
        unknown node ids before any kernel process exists."""
        out = []
        for entry in entries:
            if len(entry) != arity:
                raise ValueError(
                    f"schedule entry {entry!r} must have {arity} fields"
                )
            time, node_id = entry[0], entry[1]
            if time < self.env.now:
                raise ValueError(
                    f"failure time {time} is in the past (now={self.env.now})"
                )
            try:
                self.cluster.node(node_id)
            except KeyError:
                raise ValueError(
                    f"unknown node id {node_id!r} in fault schedule"
                ) from None
            out.append(tuple(entry))
        return out

    # -- crash injection -----------------------------------------------------

    def _scheduled_failure(self, time: float, node_id: str):
        yield self.env.timeout(time - self.env.now)
        self._fail_node(self.cluster.node(node_id))

    def _stochastic_failures(self, mtbf: float):
        while True:
            yield self.env.timeout(float(self.rng.exponential(mtbf)))
            candidates = self.cluster.up_nodes
            if not candidates:
                continue
            node = candidates[int(self.rng.integers(len(candidates)))]
            self._fail_node(node)

    def _fail_node(self, node: Node) -> None:
        if not node.is_up:
            return
        victims = node.fail()
        recovered_at = (
            self.env.now + self.downtime if self.downtime is not None else None
        )
        self.failures.append(
            NodeFailure(
                time=self.env.now,
                node_id=node.id,
                victims=len(victims),
                recovered_at=recovered_at,
            )
        )
        if self.downtime is not None:
            self.env.process(self._recover_later(node), name=f"recover:{node.id}")

    def _recover_later(self, node: Node):
        yield self.env.timeout(self.downtime)
        node.recover()

    # -- gray injection ------------------------------------------------------

    def _scheduled_slowdown(
        self, time: float, node_id: str, factor: float, duration: Optional[float]
    ):
        yield self.env.timeout(time - self.env.now)
        node = self.cluster.node(node_id)
        node.slowdown = factor
        until = self.env.now + duration if duration is not None else None
        self.gray_faults.append(
            GrayFault(time=self.env.now, node_id=node_id, factor=factor, until=until)
        )
        if duration is not None:
            yield self.env.timeout(duration)
            # Only lift our own degradation (a crash/recovery in the
            # window already reset the node to full speed).
            if node.slowdown == factor:
                node.slowdown = 1.0

    # -- accounting ----------------------------------------------------------

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def total_victims(self) -> int:
        """Total processes interrupted across all failures."""
        return sum(f.victims for f in self.failures)
