"""Shared-resource primitives built on the event kernel.

These mirror the classic DES resource trio:

- :class:`Resource` — ``capacity`` identical slots with a FIFO queue
  (cores on a node, pilot slots, EC2 instance pool).
- :class:`Container` — a continuous quantity with put/get (memory
  bytes, storage capacity, network tokens).
- :class:`Store` / :class:`FilterStore` — queues of Python objects
  (work queues, message queues).

All queue disciplines are deterministic: requests are served strictly
in arrival order (or priority then arrival order for the priority
variants).  The implementations are tuned for large waiter counts —
``Resource`` keeps its queue as a ``(priority, seq)`` binary heap with
lazy cancellation, the stores use deques instead of ``pop(0)`` lists,
and ``FilterStore`` only re-tests waiting getters against *newly*
admitted items — but every grant order is bit-identical to the
straightforward sorted-list versions they replaced (pinned by
``tests/simkernel/test_reference_model.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.simkernel.events import Event
from repro.simkernel.queueing import heap_make, heap_pop, heap_push


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            ... hold the slot ...
    """

    __slots__ = ("resource", "priority", "_seq", "_cancelled")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self._cancelled = False
        resource._seq += 1
        self._seq = resource._seq
        # (priority, seq) is a unique total order, so the heap never
        # compares Request objects and grants exactly in sorted order.
        heap_push(resource._queue, (priority, self._seq, self))
        resource._waiting += 1
        resource._trigger_queued()

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        if self.triggered or self._cancelled:
            return
        self._cancelled = True
        self.resource._waiting -= 1
        self.resource._maybe_compact()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` interchangeable slots with a deterministic queue."""

    def __init__(self, env, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Requests currently holding a slot (insertion-ordered set).
        self.users: dict[Request, None] = {}
        # Heap of (priority, seq, request); cancelled requests stay in
        # the heap as tombstones and are skipped when popped.
        self._queue: list[tuple[int, int, Request]] = []
        self._waiting = 0
        self._seq = 0

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return self._waiting

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a slot previously granted to ``request``.

        Releasing an ungranted request cancels it instead.
        """
        if request in self.users:
            del self.users[request]
            self._trigger_queued()
        else:
            request.cancel()

    def _trigger_queued(self) -> None:
        while self._waiting and len(self.users) < self.capacity:
            req = heap_pop(self._queue)[2]
            if req._cancelled:
                continue
            self._waiting -= 1
            self.users[req] = None
            req.succeed()

    def _maybe_compact(self) -> None:
        # Keep cancel O(1) amortized: rebuild once tombstones dominate.
        if len(self._queue) > 2 * self._waiting + 16:
            self._queue = [e for e in self._queue if not e[2]._cancelled]
            heap_make(self._queue)


class PriorityResource(Resource):
    """A :class:`Resource` whose queue orders by ``priority`` (low first)."""

    def request(self, priority: int = 0) -> Request:
        return Request(self, priority)


class Container:
    """A continuous quantity between 0 and ``capacity``.

    ``put``/``get`` events trigger once the operation can complete in
    full (no partial fills).  Waiters are served FIFO — a large ``get``
    at the head of the queue blocks smaller ones behind it, which is the
    conservative (non-starving) discipline batch schedulers use.
    """

    def __init__(self, env, capacity: float = float("inf"), init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self._level = float(init)
        self._getters: deque[tuple[float, Event]] = deque()
        self._putters: deque[tuple[float, Event]] = deque()

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; triggers when it fits under ``capacity``."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            # A put that can never fit would deadlock silently; reject it
            # up front, symmetrically with get().
            raise ValueError(f"put({amount}) exceeds capacity {self.capacity}")
        ev = Event(self.env)
        self._putters.append((amount, ev))
        self._drain()
        return ev

    def get(self, amount: float) -> Event:
        """Remove ``amount``; triggers when at least that much is stored."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount > self.capacity:
            raise ValueError(f"get({amount}) exceeds capacity {self.capacity}")
        ev = Event(self.env)
        self._getters.append((amount, ev))
        self._drain()
        return ev

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._putters:
                amount, ev = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._level += amount
                    self._putters.popleft()
                    ev.succeed(amount)
                    progressed = True
            if self._getters:
                amount, ev = self._getters[0]
                if amount <= self._level:
                    self._level -= amount
                    self._getters.popleft()
                    ev.succeed(amount)
                    progressed = True


class Store:
    """A FIFO queue of arbitrary objects with optional capacity."""

    def __init__(self, env, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Any, Event]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; triggers once there is room."""
        ev = Event(self.env)
        self._putters.append((item, ev))
        self._drain()
        return ev

    def get(self) -> Event:
        """Remove the oldest item; triggers once one is available."""
        ev = Event(self.env)
        self._getters.append(ev)
        self._drain()
        return ev

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._putters and len(self.items) < self.capacity:
                item, ev = self._putters.popleft()
                self.items.append(item)
                ev.succeed(item)
                progressed = True
            while self._getters and self.items:
                ev = self._getters.popleft()
                item = self.items.popleft()
                ev.succeed(item)
                progressed = True


class FilterStore(Store):
    """A :class:`Store` whose getters may select items by predicate.

    Getters are records of ``(predicate, event)``; each is granted the
    first stored item its predicate accepts, in getter arrival order.

    Invariant between operations: every waiting getter has already been
    tested (and failed) against every stored item.  Each drain therefore
    only tests getters against items admitted *during* that drain — a
    new getter is the one exception and scans the full store once — so
    total predicate work is O(getters × new items), not quadratic in the
    number of passes.
    """

    def __init__(self, env, capacity: float = float("inf")):
        super().__init__(env, capacity)
        # Records are [predicate, event, active]; cancelled-by-grant
        # records flip active to False and are compacted lazily so that
        # iteration stays in arrival order with O(1) removal.
        self._getters: list[list] = []  # type: ignore[assignment]
        self._active_getters = 0
        self.items: list[Any] = []  # arbitrary removal: keep it a list

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:  # noqa: A002
        ev = Event(self.env)
        predicate = filter or (lambda item: True)
        match = next((i for i in self.items if predicate(i)), _NO_MATCH)
        if match is _NO_MATCH:
            self._getters.append([predicate, ev, True])
            self._active_getters += 1
        else:
            self.items.remove(match)
            ev.succeed(match)
            self._drain()  # freed capacity may admit queued putters
        return ev

    def _drain(self) -> None:
        while True:
            fresh: list[list] = []  # [item, still-available] slots
            while self._putters and len(self.items) < self.capacity:
                item, ev = self._putters.popleft()
                self.items.append(item)
                ev.succeed(item)
                fresh.append([item, True])
            if not fresh or not self._active_getters:
                break
            matched = False
            for record in self._getters:
                if not record[2]:
                    continue
                predicate, ev = record[0], record[1]
                for slot in fresh:
                    if slot[1] and predicate(slot[0]):
                        slot[1] = False
                        self.items.remove(slot[0])
                        record[2] = False
                        self._active_getters -= 1
                        ev.succeed(slot[0])
                        matched = True
                        break
            if matched:
                self._compact_getters()
            else:
                break  # nothing matched; queued putters stay queued

    def _compact_getters(self) -> None:
        if len(self._getters) > 2 * self._active_getters + 16:
            self._getters = [r for r in self._getters if r[2]]


_NO_MATCH = object()
