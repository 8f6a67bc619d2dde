"""Retry policies and failure classification.

A failure's *class* decides what to do with it:

- ``TRANSIENT`` — the infrastructure ate the task (node death, spot
  reclaim, transfer fault, site outage).  Retrying on different
  hardware is expected to succeed; this is the E4 story.
- ``PERMANENT`` — the payload itself errored (the §4.3 "time step too
  large" divergences).  Retrying burns allocation for the same crash.
- ``WALLTIME`` — the surrounding job hit its limit; the task itself is
  fine but needs a fresh job to finish in.

Every runtime takes its retry budget as one :class:`RetryPolicy`; the
default retries every class twice with zero backoff.  All jitter is
drawn from seeded generators keyed on ``(seed, attempt, key)`` so
identical runs stay identical.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Optional

import numpy as np

from repro.cluster.node import NodeFailureCause


class FailureClass(enum.Enum):
    """What kind of failure a task saw — the retry-vs-abort input."""

    TRANSIENT = "transient"
    PERMANENT = "permanent"
    WALLTIME = "walltime"


#: Substrings that mark a textual failure cause as infrastructure loss.
_TRANSIENT_MARKERS = (
    "dead-node",
    "node-failure",
    "spot-reclaim",
    "preempt",
    "site-outage",
    "outage",
    "transfer",
    "transient",
    "pilot-shutdown",
    "slot lost",
)


def classify_failure(cause: Any) -> FailureClass:
    """Map a failure cause (exception, interrupt cause, or text) to a class.

    The convention across the codebase: node deaths arrive as
    :class:`~repro.cluster.node.NodeFailureCause` or ``"dead-node:<id>"``
    strings, walltime kills as the literal ``"walltime"``, and payload
    errors as raised exceptions.  Unknown causes classify as PERMANENT —
    the conservative default (never retry what we don't understand
    unless the policy says retry everything).
    """
    if isinstance(cause, FailureClass):
        return cause
    if isinstance(cause, NodeFailureCause):
        return FailureClass.TRANSIENT
    # Exceptions that explicitly carry transience (e.g. TransferError).
    transient_attr = getattr(cause, "transient", None)
    if transient_attr is True:
        return FailureClass.TRANSIENT
    text = str(cause).lower()
    if "walltime" in text:
        return FailureClass.WALLTIME
    if any(marker in text for marker in _TRANSIENT_MARKERS):
        return FailureClass.TRANSIENT
    return FailureClass.PERMANENT


#: Retry-everything: the default policy.
ALL_CLASSES: FrozenSet[FailureClass] = frozenset(FailureClass)
#: Retry only infrastructure loss — the E4-faithful policy.
TRANSIENT_ONLY: FrozenSet[FailureClass] = frozenset(
    {FailureClass.TRANSIENT}
)
#: Transient + walltime (a fresh job can absorb a walltime kill).
RECOVERABLE: FrozenSet[FailureClass] = frozenset(
    {FailureClass.TRANSIENT, FailureClass.WALLTIME}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Shared retry policy: attempt budget, backoff, classification.

    Parameters
    ----------
    max_retries:
        Resubmissions after the first attempt (``max_retries=0`` means
        one attempt total).
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff: retry *n* waits
        ``min(backoff_max_s, backoff_base_s * backoff_factor**(n-1))``
        seconds.  The default base of 0 disables backoff entirely (no
        timeout event is even scheduled).
    jitter:
        Fractional jitter: the delay is scaled by a deterministic
        uniform draw from ``1 - jitter`` to ``1 + jitter`` seeded on
        ``(seed, attempt, key)`` — identical runs stay identical, but
        concurrent retries of different tasks desynchronize (no
        resubmission storms landing on one scheduler tick).
    retry_on:
        Failure classes worth retrying.  Defaults to *all* classes;
        pass ``TRANSIENT_ONLY`` to abort fast on payload errors, the
        behaviour the chaos matrix asserts.
    classifier:
        Override the cause → :class:`FailureClass` mapping.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 300.0
    jitter: float = 0.0
    seed: int = 0
    retry_on: FrozenSet[FailureClass] = ALL_CLASSES
    classifier: Callable[[Any], FailureClass] = field(
        default=classify_failure, repr=False
    )

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if not self.retry_on:
            raise ValueError("retry_on must name at least one FailureClass")
        object.__setattr__(self, "retry_on", frozenset(self.retry_on))

    # -- classification ------------------------------------------------------

    def classify(self, cause: Any) -> FailureClass:
        return self.classifier(cause)

    # -- decisions -----------------------------------------------------------

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def should_retry(self, attempts: int, cause: Any = None) -> bool:
        """Whether a task that has run ``attempts`` times and just
        failed with ``cause`` deserves another submission."""
        if attempts > self.max_retries:
            return False
        if cause is None:
            return True
        return self.classify(cause) in self.retry_on

    def backoff_s(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        ``key`` (typically the task name) decorrelates the jitter of
        tasks retrying at the same attempt count.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.backoff_base_s <= 0:
            return 0.0
        raw = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter <= 0:
            return raw
        rng = np.random.default_rng(
            [self.seed, attempt, zlib.crc32(key.encode())]
        )
        return raw * (1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0))

    # -- canned profiles -----------------------------------------------------

    @classmethod
    def resilient(
        cls,
        max_retries: int = 3,
        backoff_base_s: float = 5.0,
        jitter: float = 0.25,
        seed: int = 0,
        retry_walltime: bool = False,
    ) -> "RetryPolicy":
        """Classification-aware profile: retry infrastructure loss with
        jittered exponential backoff, abort on payload errors."""
        return cls(
            max_retries=max_retries,
            backoff_base_s=backoff_base_s,
            jitter=jitter,
            seed=seed,
            retry_on=RECOVERABLE if retry_walltime else TRANSIENT_ONLY,
        )


__all__ = [
    "ALL_CLASSES",
    "FailureClass",
    "RECOVERABLE",
    "RetryPolicy",
    "TRANSIENT_ONLY",
    "classify_failure",
]
