"""simsan — same-instant race sanitizer + batch-permutation checker.

Two entry points (full guide: ``docs/SANITIZER.md``):

* :func:`enable_sanitizer` — attach a batch observer to an
  :class:`~repro.simkernel.core.Environment` and collect cross-process
  write-write pairs per same-instant batch.
* ``python -m repro.sanitizer`` — re-run the golden E1–E8 scenarios at
  reduced scale with every batch reversed/shuffled and verify the
  digests don't move (:mod:`repro.sanitizer.permute`).

This package top level stays import-light (PEP 562 lazy attributes):
the instrumented containers import :mod:`repro.sanitizer.hooks` at
module load, and that must never drag the simkernel in behind them.
"""

from __future__ import annotations

__all__ = [
    "RaceReport",
    "Sanitizer",
    "WatchedDict",
    "disable_sanitizer",
    "enable_sanitizer",
]


def __getattr__(name):
    if name in __all__:
        from repro.sanitizer import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
