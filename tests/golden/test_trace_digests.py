"""Golden determinism regression: golden-scale E1–E8 traces, byte-pinned.

The traces come from the scenario registry in ``src/``:
:func:`repro.report.scenarios.golden_trace` runs each scenario's traced
run at its ``golden`` scale and exports it as JSONL (E8: a canonical
JSON of its run).  Their SHA-256 digests are pinned in
``src/repro/report/trace_digests.json``.  The digests were captured
from the seed implementation *before* the scheduling/primitive
optimizations landed — a digest mismatch means a grant order,
simulated timestamp, or exported field changed, which the perf work
explicitly must not do.

The ``-sanitizer`` cases rebuild each trace with the simsan sanitizer
attached as the kernel's batch observer (no permutation, attached
through the same :func:`repro.obs.tracing_hook` as
:func:`repro.sanitizer.permute.check_scenario`): observing a run must
not move its digest either.

If a digest changes because of an *intentional* behaviour change,
regenerate with ``PYTHONPATH=src python tests/golden/regen.py`` and say
so in the commit message.
"""

import contextlib
import hashlib

import pytest

from repro.obs import tracing_hook
from repro.report.scenarios import SCENARIOS, golden_trace, pinned_digests
from repro.sanitizer import enable_sanitizer

PINNED = pinned_digests()


def test_pinned_set_matches_builders():
    assert set(PINNED) == set(SCENARIOS)


@pytest.mark.parametrize(
    "bench_id, sanitized",
    [pytest.param(b, False, id=b) for b in sorted(SCENARIOS)]
    + [pytest.param(b, True, id=f"{b}-sanitizer") for b in sorted(SCENARIOS)],
)
def test_trace_digest(bench_id, sanitized):
    sanitizers: list = []

    def attach(env, sink):
        sanitizers.append(enable_sanitizer(env))

    with tracing_hook(attach) if sanitized else contextlib.nullcontext():
        text = golden_trace(bench_id)
    # E8 has no discrete-event run, so nothing to observe.
    assert all(s.batches for s in sanitizers)
    assert sanitized == bool(sanitizers) or bench_id == "E8"
    digest = hashlib.sha256(text.encode()).hexdigest()
    pinned = PINNED[bench_id]
    assert len(text.encode()) == pinned["bytes"], (
        f"{bench_id}: trace size changed "
        f"({len(text.encode())} vs pinned {pinned['bytes']} bytes)"
    )
    assert digest == pinned["sha256"], (
        f"{bench_id}: trace content drifted from the pinned golden digest; "
        "a grant order / timestamp / export field changed"
    )
