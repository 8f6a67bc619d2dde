"""Unified fault-tolerance substrate shared by every execution layer.

The paper's E4 result (§4.3) — eight tasks killed by one Frontier node
failure, all automatically resubmitted to a clean finish — only works
because the runtime absorbs node loss.  Every runtime (the EnTK agent,
the WMS engines, the LLM debugger) takes one :class:`RetryPolicy` and
may track node health.  The pieces:

- :class:`RetryPolicy` — attempt budget, exponential backoff with
  deterministic seeded jitter, and a failure classifier
  (transient infrastructure loss vs. permanent payload error vs.
  walltime) deciding retry-vs-abort.  The default retries everything
  with zero backoff.
- :class:`NodeHealth` — a per-node circuit breaker: repeated failures
  quarantine a node, quarantined nodes feed an avoid-set into
  :class:`~repro.rm.batch.BatchScheduler` /
  :class:`~repro.rm.kube.KubeScheduler` placement and the EnTK
  :class:`~repro.entk.agent.PilotAgent`, and a probation window
  un-quarantines them for a fresh look.
- :mod:`repro.resilience.metrics` — MTTR / availability reductions over
  the fault-injection log.
- :mod:`repro.resilience.slo` — stock alert rules ("task failure rate",
  "quarantined nodes", "resubmission storm") usable from
  :mod:`repro.report`.

Retries show in the results as ``TaskRecord.attempts`` /
``WorkflowRun.retried_tasks()`` and in the trace as the ``attempt``
tag of the ``entk.exec`` and ``engine.task`` spans.
"""

from repro.resilience.policy import (
    ALL_CLASSES,
    RECOVERABLE,
    TRANSIENT_ONLY,
    FailureClass,
    RetryPolicy,
    classify_failure,
)
from repro.resilience.health import NodeHealth, QuarantineEvent, QuarantineSpec
from repro.resilience.metrics import availability, mttr, node_downtime
from repro.resilience.slo import resilience_context, stock_resilience_rules

__all__ = [
    "ALL_CLASSES",
    "RECOVERABLE",
    "TRANSIENT_ONLY",
    "FailureClass",
    "NodeHealth",
    "QuarantineEvent",
    "QuarantineSpec",
    "RetryPolicy",
    "availability",
    "classify_failure",
    "mttr",
    "node_downtime",
    "resilience_context",
    "stock_resilience_rules",
]
