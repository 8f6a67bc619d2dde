"""Instrumentation hook point for the simsan dynamic layer.

This module is deliberately dependency-free: the instrumented
containers (``repro.rm.util.OrderedSet``, ``repro.cluster.cluster.
FreeNodePool``, the metric primitives) import it at module load, so it
must not import anything that could cycle back into them.

The contract is a single module global:

``ACTIVE``
    ``None`` (the overwhelmingly common case) or the
    :class:`repro.sanitizer.core.Sanitizer` observing the batch the
    kernel is dispatching.  Instrumented call sites guard every record with::

        if hooks.ACTIVE is not None:
            hooks.ACTIVE.record(self, member, "w")

    so the disabled cost is one module-attribute load and an ``is``
    comparison — and none of the instrumented operations sit on the
    kernel's event hot loop (they are scheduler/bookkeeping paths).

Only the sanitizer's batch callbacks assign ``ACTIVE``: set by
``begin_batch``, cleared by ``end_batch``, which the kernel loop calls
from a ``finally``.  Accesses outside a sanitized batch — scenario
setup, teardown, other environments — are never recorded, and two
environments cannot cross-talk because only one batch dispatches at a
time.
"""

from __future__ import annotations

#: The sanitizer observing the current batch, or None.  Assigned only
#: by ``Sanitizer.begin_batch`` / ``Sanitizer.end_batch``.
ACTIVE = None
