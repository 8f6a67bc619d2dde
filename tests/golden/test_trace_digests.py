"""Golden determinism regression: reduced-scale E1–E8 traces, byte-pinned.

Every builder in :mod:`tests.golden.traces` exports a JSONL trace (E8: a
canonical JSON headline) whose SHA-256 digest is pinned in
``trace_digests.json``.  The digests were captured from the seed
implementation *before* the scheduling/primitive optimizations landed —
a digest mismatch means a grant order, simulated timestamp, or exported
field changed, which the perf work explicitly must not do.

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
import json
from pathlib import Path

import pytest

from repro.obs import tracing_hook
from repro.sanitizer import enable_sanitizer
from tests.golden.traces import BUILDERS, build_traces

PINNED = json.loads(
    (Path(__file__).parent / "trace_digests.json").read_text()
)


def test_pinned_set_matches_builders():
    assert set(PINNED) == set(BUILDERS)


@pytest.mark.parametrize(
    "bench_id, sanitized",
    [pytest.param(b, False, id=b) for b in sorted(BUILDERS)]
    + [pytest.param(b, True, id=f"{b}-sanitizer") for b in sorted(BUILDERS)],
)
def test_trace_digest(bench_id, sanitized):
    sanitizers: list = []

    def attach(env, sink):
        sanitizers.append(enable_sanitizer(env))

    with tracing_hook(attach) if sanitized else contextlib.nullcontext():
        text = build_traces(only={bench_id})[bench_id]
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
