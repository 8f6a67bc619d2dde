"""Queueing primitives for the kernel: the calendar queue and the heap.

This module is the **single sanctioned import site for ``heapq``** in
the simulation kernel (enforced by simlint rule KER005).  Everything in
``repro.simkernel`` that needs heap ordering — the calendar queue's
overflow index, the resource priority queues — imports the primitives
from here instead of reaching for ``heapq`` directly, so there is
exactly one place to audit the ordering guarantees that determinism
rests on.

Calendar-queue layout
---------------------

The :class:`Environment` hot loop does not push one heap entry per
event.  It keeps a *calendar*:

``buckets``
    ``dict[float, list[Event]]`` — NORMAL-priority events, keyed by
    their exact trigger time.  Append order within a bucket **is** the
    schedule order, so no per-entry ``(time, priority, seq)`` tuples
    and no sorting are ever needed.
``urgent``
    the same, for URGENT events (process initialization, interrupts).
    At equal time every urgent event dispatches before every normal
    one, which reproduces the old heap's ``(time, priority, seq)``
    order exactly.
``times``
    a plain ``heapq`` heap of *distinct* timestamps — the lazy
    overflow spill.  Only bucket creation pushes here (one entry per
    distinct time, not per event), so heap traffic drops from
    O(events·log events) to O(instants·log instants).  Duplicate or
    stale entries are tolerated: the run loop re-checks the dicts and
    skips empty times, which keeps deletion lazy and O(1).

The helpers below implement the slow-path operations on that layout.
The :class:`Environment` run loop intentionally inlines the fast-path
equivalents (see ``core.py``) — a function call per event would cost
more than the work it wraps — but slow paths (``peek``, batch
recovery after ``StopSimulation``) route through here so the
invariants live in one place.
"""

from __future__ import annotations

# The one sanctioned heapq import (KER005): re-exported for the rest of
# the kernel.
from heapq import heapify as heap_make  # noqa: F401  (re-export)
from heapq import heappop as heap_pop
from heapq import heappush as heap_push
from heapq import merge as heap_merge  # noqa: F401  (re-export)

__all__ = [
    "heap_make",
    "heap_merge",
    "heap_pop",
    "heap_push",
    "calendar_insert",
    "calendar_peek",
    "calendar_pending",
    "calendar_reinsert",
]


def calendar_insert(buckets: dict, other: dict, times: list, t: float, event) -> None:
    """Append ``event`` to ``buckets[t]``, creating the bucket if needed.

    ``other`` is the opposite-priority calendar for the same clock: a
    timestamp is pushed onto ``times`` only when neither calendar knows
    it yet, so each distinct time costs one heap entry at most (dup
    pushes from racing creations are tolerated by the consumers).
    """
    bucket = buckets.get(t)
    if bucket is None:
        if t not in other:
            heap_push(times, t)
        buckets[t] = [event]
    else:
        bucket.append(event)


def calendar_peek(buckets: dict, urgent: dict, times: list) -> float:
    """Earliest timestamp with at least one event, or ``inf``.

    Lazily drops stale ``times`` entries (times whose buckets have
    already been drained) while peeking.
    """
    while times:
        t = times[0]
        if t in urgent or t in buckets:
            return t
        heap_pop(times)
    return float("inf")


def calendar_pending(buckets: dict, urgent: dict) -> int:
    """Total number of events currently scheduled."""
    n = 0
    for bucket in buckets.values():
        n += len(bucket)
    for bucket in urgent.values():
        n += len(bucket)
    return n


def calendar_reinsert(buckets: dict, other: dict, times: list, t: float, rest: list) -> None:
    """Put an interrupted batch remainder back at the *front* of ``buckets[t]``.

    Used when ``StopSimulation`` (or a propagating error) aborts a
    same-timestamp batch mid-dispatch: the not-yet-dispatched tail must
    keep its position ahead of anything scheduled at ``t`` during the
    batch.
    """
    if not rest:
        return
    bucket = buckets.get(t)
    if bucket:
        rest.extend(bucket)
    if t not in buckets and t not in other:
        heap_push(times, t)
    buckets[t] = rest
