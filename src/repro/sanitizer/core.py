"""simsan dynamic layer: the same-instant race sanitizer.

The calendar-queue kernel dispatches every event of one simulated
instant as a batch (``docs/SIMKERNEL.md``).  Batch order is schedule
order — deterministic, but *incidental*: code is only allowed to depend
on it through explicit event edges.  The :class:`Sanitizer` is a
batch observer of the kernel's one event loop
(:attr:`Environment.observer <repro.simkernel.core.Environment.observer>`)
that

* tags each same-instant dispatch batch and each dispatch *unit*
  (one event plus everything its callbacks run synchronously),
* collects ``(container, member)`` access sets from the lightweight
  hooks in :class:`repro.rm.util.OrderedSet`,
  :class:`repro.cluster.cluster.FreeNodePool`, the metric primitives,
  and any :class:`WatchedDict` the scenario plants,
* reports **write-write pairs**: two distinct units of one batch
  writing the same member with different (or unknown) values — the
  dynamic twin of the static RACE001 finding,
* optionally **permutes** each batch (reverse or seeded shuffle)
  before dispatch, which is how the batch-permutation checker
  (:mod:`repro.sanitizer.permute`) turns "the golden digest moved"
  into a confirmed order dependence.

While an observer is attached the loop takes the kernel's *generic*
dispatch path — it skips the Timeout-recycling/inlined-waiter fast
path, which is semantically identical by construction (held so by the
differential fuzzer in ``tests/simkernel/``) — so enabling the
sanitizer never changes simulation results, only observes them.  With
the sanitizer disabled the loop's only added cost is one attribute
test per batch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from repro.sanitizer import hooks

#: Sentinel for "value not captured" — conservative: colliding writes
#: with unknown values are reported.
_MISSING = object()

#: Access modes.  "w" = order-sensitive write; "x" = consume (remove /
#: take from a shared queue — a write that *observed* prior state, so
#: one that follows another unit's write of the same member is a
#: producer/consumer hand-off, not a race); "o" = ordering write (queue
#: insertion position — collisions are *warnings*, because concurrent
#: submitters at one instant are a legitimate pattern whose
#: convergence the permutation checker verifies end-to-end); "r" =
#: read; "c" = commutative update (counter increments, utilization
#: acquire/release) — aggregated for the report but never raced.
MODES = ("w", "x", "o", "r", "c")


@dataclass(frozen=True)
class RaceReport:
    """One cross-unit write-write pair within a same-instant batch."""

    t: float
    batch: int
    container: str
    member: str
    units: tuple[str, str]  # dispatch-unit labels, batch order
    values: tuple[str, str]  # reprs of the colliding values ("?" = unknown)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "batch": self.batch,
            "container": self.container,
            "member": self.member,
            "units": list(self.units),
            "values": list(self.values),
        }

    def render(self) -> str:
        return (
            f"t={self.t} batch#{self.batch}: write-write on "
            f"{self.container}[{self.member}] by '{self.units[0]}' "
            f"(={self.values[0]}) and '{self.units[1]}' (={self.values[1]})"
        )


@dataclass
class _Access:
    unit: str
    mode: str
    value: Any
    seq: int  # dispatch-order position within the batch


class Sanitizer:
    """Batch observer + access-set recorder.

    Implements the kernel's observer protocol: ``begin_batch``,
    ``begin_unit`` and ``end_batch``.  :data:`hooks.ACTIVE` points at
    the sanitizer from ``begin_batch`` to ``end_batch``, which the loop
    calls even when an exception cuts the batch short.

    Parameters
    ----------
    permute:
        ``None`` (observe only), ``"reverse"`` (reverse every
        same-instant batch), or ``"shuffle"`` (seeded Fisher-Yates per
        batch) — the permutation-checker modes.
    seed:
        Seed for ``"shuffle"`` mode; one :class:`random.Random` drawn
        per run keeps permutations reproducible.
    """

    def __init__(self, permute: Optional[str] = None, seed: int = 0):
        if permute not in (None, "reverse", "shuffle"):
            raise ValueError(f"unknown permute mode {permute!r}")
        self.permute = permute
        self._rng = random.Random(seed)
        self.races: list[RaceReport] = []
        #: "<order>" collisions: batch-dependent queue insertion order,
        #: demoted from races — see MODES.
        self.order_warnings: list[RaceReport] = []
        self.batches = 0
        self.units = 0
        self.records = 0
        #: commutative-update totals per (container, member)
        self.commutative: dict[tuple[str, str], int] = {}
        self._containers: dict[int, str] = {}
        self._kind_counts: dict[str, int] = {}
        #: live per-batch access log: (container, member) -> [_Access]
        self._accesses: dict[tuple[str, str], list[_Access]] = {}
        self._unit: str = "?"
        self._batch_t: float = 0.0
        self._seq = 0
        self._seen_pairs: set[tuple] = set()

    # -- recording (called from instrumented containers) --------------------

    def record(
        self,
        obj: Any,
        member: str,
        mode: str,
        value: Any = _MISSING,
        kind: Optional[str] = None,
    ) -> None:
        """Log one access to ``obj``'s ``member`` by the current unit."""
        label = self._containers.get(id(obj))
        if label is None:
            name = kind or type(obj).__name__
            n = self._kind_counts.get(name, 0)
            self._kind_counts[name] = n + 1
            label = f"{name}#{n}"
            self._containers[id(obj)] = label
        self.records += 1
        if mode == "c":
            key = (label, member)
            self.commutative[key] = self.commutative.get(key, 0) + 1
            return
        self._seq += 1
        self._accesses.setdefault((label, member), []).append(
            _Access(self._unit, mode, value, self._seq)
        )

    def label(self, obj: Any, name: str) -> None:
        """Give ``obj`` a stable report name (else ``<Type>#<n>``)."""
        self._containers[id(obj)] = name

    # -- batch lifecycle -----------------------------------------------------

    def begin_batch(self, t: float, batch: list) -> None:
        """Open a same-instant batch; permute it in place if asked."""
        hooks.ACTIVE = self
        self._batch_t = t
        self.batches += 1
        self._accesses.clear()
        if self.permute == "reverse":
            batch.reverse()
        elif self.permute == "shuffle":
            self._rng.shuffle(batch)

    def begin_unit(self, index: int, event: Any) -> None:
        """Attribute the accesses that follow to ``event``'s unit."""
        self.units += 1
        self._unit = f"{index}:{_describe(event)}"

    def end_batch(self) -> None:
        """Close the batch: report its write-write pairs."""
        hooks.ACTIVE = None
        for (container, member), accesses in self._accesses.items():
            writes = [a for a in accesses if a.mode in ("w", "x", "o")]
            by_unit: dict[str, _Access] = {}
            for a in writes:
                by_unit[a.unit] = a  # last write per unit
            if len(by_unit) < 2:
                continue
            units = list(by_unit)
            first = by_unit[units[0]]
            for other_unit in units[1:]:
                other = by_unit[other_unit]
                earlier, later = sorted((first, other), key=lambda a: a.seq)
                if earlier.mode == "w" and later.mode == "x":
                    # Producer/consumer hand-off: the consume observed
                    # the produce (real dataflow through the queue) and
                    # the wakeup protocol retries the other order, so
                    # the outcome converges.  The permutation checker
                    # verifies that convergence end-to-end.
                    continue
                if (
                    first.value is not _MISSING
                    and other.value is not _MISSING
                    and first.value == other.value
                ):
                    continue  # same final value either way: benign
                dedup = (container, member, first.unit, other.unit)
                if dedup in self._seen_pairs:
                    continue
                self._seen_pairs.add(dedup)
                sink = (
                    self.order_warnings
                    if earlier.mode == "o" or later.mode == "o"
                    else self.races
                )
                sink.append(
                    RaceReport(
                        t=self._batch_t,
                        batch=self.batches,
                        container=container,
                        member=member,
                        units=(first.unit, other.unit),
                        values=(_value_repr(first.value), _value_repr(other.value)),
                    )
                )
        self._accesses.clear()

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        """JSON-able summary of the run's observations."""
        return {
            "batches": self.batches,
            "units": self.units,
            "records": self.records,
            "permute": self.permute,
            "races": [r.to_json() for r in self.races],
            "order_warnings": [r.to_json() for r in self.order_warnings],
            "commutative": {
                f"{container}[{member}]": count
                for (container, member), count in sorted(self.commutative.items())
            },
        }


def _describe(event: Any) -> str:
    """Stable human label for a dispatch unit (the event being fired)."""
    waiter = getattr(event, "_waiter", None)
    if waiter is not None:
        name = getattr(waiter, "name", None)
        if name:
            return str(name)
    # Process-lifecycle events (Initialize, interrupts) carry the
    # process as the bound receiver of their resume callback.
    for cb in getattr(event, "callbacks", None) or ():
        owner = getattr(cb, "__self__", None)
        name = getattr(owner, "name", None)
        if name:
            return str(name)
    name = getattr(event, "name", None)
    if name:
        return str(name)
    return type(event).__name__


def _value_repr(value: Any) -> str:
    return "?" if value is _MISSING else repr(value)


class WatchedDict(dict):
    """A dict whose item writes/reads feed the active sanitizer.

    For shared state the built-in hooks do not cover: plant one at
    module level (or on a shared object), and every ``d[k] = v`` /
    ``d[k]`` during a sanitized run is attributed to the dispatch unit
    that performed it.  Outside a sanitized run it is a plain dict.
    """

    def __init__(self, *args: Any, label: str = "WatchedDict", **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.label = label

    def __setitem__(self, key: Any, value: Any) -> None:
        active = hooks.ACTIVE
        if active is not None:
            active.record(self, str(key), "w", value=value, kind=self.label)
        super().__setitem__(key, value)

    def __getitem__(self, key: Any) -> Any:
        active = hooks.ACTIVE
        if active is not None:
            active.record(self, str(key), "r", kind=self.label)
        return super().__getitem__(key)

    def __delitem__(self, key: Any) -> None:
        active = hooks.ACTIVE
        if active is not None:
            active.record(self, str(key), "x", kind=self.label)
        super().__delitem__(key)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        active = hooks.ACTIVE
        if active is not None:
            active.record(self, str(key), "w", value=default, kind=self.label)
        return super().setdefault(key, default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        active = hooks.ACTIVE
        if active is not None:
            merged = dict(*args, **kwargs)
            for key, value in merged.items():
                active.record(self, str(key), "w", value=value, kind=self.label)
        super().update(*args, **kwargs)


def enable_sanitizer(
    env, permute: Optional[str] = None, seed: int = 0
) -> Sanitizer:
    """Attach a :class:`Sanitizer` to ``env`` as its batch observer and
    return it (also reachable as ``env.observer``)."""
    sanitizer = Sanitizer(permute=permute, seed=seed)
    env.observer = sanitizer
    return sanitizer


def disable_sanitizer(env) -> None:
    """Detach any sanitizer; ``env`` takes its fast path again."""
    env.observer = None
