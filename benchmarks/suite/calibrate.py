"""The frozen reference loop behind calibrated seconds.

A shared VM's speed drifts between (and within) benchmark runs: the raw
wall time of the same campaign can move by tens of percent.  Every
sample is therefore timed next to this loop, and its raw time is scaled
by ``REF0_S / ref`` where ``ref`` is the loop's mean time just before
and just after the sample.  The result is a *calibrated second*: the
time the sample would have taken on a machine where this loop takes
exactly ``REF0_S``.

The loop exercises what the simulator spends its time on, in two
phases of similar length: heap pushes and pops, dict churn and
generator resumes over a small working set, then allocating a ring of
objects several megabytes large and chasing its pointers in a scattered
order.  A host slowdown that hits the cache and memory harder than the
core (another tenant streaming memory) moves the second phase more than
the first.  Over ten runs each of ``frontier_uq`` and ``jgi_scatter``,
the median sample time calibrated by both phases spread 2.3% from run
to run, by the first phase alone 2.9%, and in raw seconds 9-10%.  The
loop
imports nothing from ``repro``, so no change to the program under test
can move it.  It is frozen: editing :func:`reference_loop` or
``REF0_S`` changes the unit every committed number is expressed in, so
it means re-measuring the baseline, re-pinning the checksums in
``test_suite.py`` and saying so in the change.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Mean :func:`reference_loop` time, in seconds, that defines one
#: calibrated second (measured on the 2-core x86-64 VM the committed
#: numbers come from; see README.md).
REF0_S = 0.030

#: Loop size of the first phase; with ``RING`` and ``REF0_S`` this is
#: part of the frozen definition.
ITERATIONS = 15_000

#: Objects in the second phase's ring: a prime, so that stepping by
#: ``RING_STEP`` (a primitive root of it) visits every index but 0 once.
RING = 65_537
RING_STEP = 3


def _ticker(n: int):
    total = 0
    for k in range(n):
        got = yield k
        total += got or 0
    return total


class _Cell:
    __slots__ = ("next", "value")


def _chase() -> int:
    cells = [_Cell() for _ in range(RING)]
    for i, cell in enumerate(cells):
        cell.value = i
        cell.next = cells[i * RING_STEP % RING]
    acc = 0
    cell = cells[1]
    for _ in range(RING - 1):
        acc += cell.value
        cell = cell.next
    return acc


def reference_loop(iterations: int = ITERATIONS) -> int:
    """Deterministic heap, dict and generator churn, then pointer
    chasing over a fresh object ring; returns a checksum."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(iterations):
        key = (i * 7919) % 10_007
        heapq.heappush(heap, (key, i))
        slot = table.get(key & 1023)
        table[key & 1023] = (i, slot[0] if slot else 0)
        if len(heap) > 256:
            acc = (acc * 31 + heapq.heappop(heap)[0]) & 0xFFFFFFFF
        if i % 8 == 0:
            gen = _ticker(6)
            value = next(gen)
            try:
                while True:
                    value = gen.send(value + 1)
            except StopIteration as stop:
                acc ^= stop.value
    acc ^= len(table) ^ sum(v[0] for v in table.values())
    return acc ^ _chase()


def time_reference() -> float:
    """Wall time of one :func:`reference_loop` run, in seconds.

    The cyclic collector is paused so the loop does not pay for
    scanning whatever heap the sample before it left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference_loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
