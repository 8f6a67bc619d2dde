"""Batch-permutation checker for the golden E1–E8 scenarios.

One loop over the scenario registry (:mod:`repro.report.scenarios`):
each bench id's golden-scale traced run (:func:`golden_trace`) is the
baseline, so the check needs only ``src`` on the path and runs from
any directory.  Any other registry scale (``reduced``) runs the same
check through :func:`scenario_trace`; no digest pins it, so its
permuted runs are compared with its unpermuted run only.

The calendar-queue kernel dispatches every event scheduled at the same
simulated instant as one batch, in insertion order.  Correct models
must not depend on that order: two events at the same instant have no
causal edge between them, so any batch permutation must produce the
same simulation.  This module re-runs the golden-scale
scenarios with every same-instant batch reversed or deterministically
shuffled (:class:`repro.sanitizer.core.Sanitizer`'s ``permute`` mode)
and compares the exported traces against an unpermuted baseline built
in the same process.

Permuting a batch legitimately moves two things that are *not*
simulation state: the order trace spans are opened (span ids are
allocated sequentially) and which of several interchangeable workers
picks up which work item (the timeline is identical, only identity
tags swap).  The comparison therefore classifies each permuted trace
into one of four verdicts, from strongest to weakest:

``identical``
    Byte-identical to the baseline.
``reordered``
    Equal after renumbering span ids (parent links are rewritten to
    the parent span's name) and sorting events — same spans, same
    timestamps, same tags; only export order and id assignment moved.
``relabeled``
    Equal after *additionally* renaming interchangeable worker
    identities (``worker`` tags) by their service signature — the
    timeline is identical but symmetric workers swapped roles.
``divergent``
    A timestamp, event, or tag actually changed: real order
    sensitivity.  The report carries the first divergent event with
    surrounding context, in the style of ``tests/golden/regen.py
    --diff``.

Only ``divergent`` fails the check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.tracer import tracing_hook
from repro.sanitizer.core import enable_sanitizer

#: Permutation modes exercised by default.
MODES = ("reverse", "shuffle")

#: Verdicts that pass the check, strongest first.
PASSING = ("identical", "reordered", "relabeled")

#: Lines of context shown around the first divergent event.
CONTEXT = 3


@dataclass
class PermutationResult:
    """Outcome of one (scenario, permutation-mode) run."""

    bench_id: str
    mode: str
    verdict: str
    #: First-divergence forensics; empty unless ``divergent``.
    detail: str = ""
    #: Same-instant write-write races the sanitizer saw during the run.
    races: list = field(default_factory=list)
    #: Batch-dependent queue-insertion orders: recorded, never fatal —
    #: the verdict above is the end-to-end proof they converged.
    order_warnings: list = field(default_factory=list)
    batches: int = 0
    units: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict in PASSING and not self.races

    def to_json(self) -> dict:
        return {
            "bench_id": self.bench_id,
            "mode": self.mode,
            "verdict": self.verdict,
            "passed": self.passed,
            "detail": self.detail,
            "races": list(self.races),
            "order_warnings": list(self.order_warnings),
            "batches": self.batches,
            "units": self.units,
        }


# -- canonicalization ----------------------------------------------------------


def _parse(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _strip_ids(records: list[dict]) -> list[dict]:
    """Replace sequential span ids with structural parent names."""
    names = {
        rec["id"]: rec.get("name", "?")
        for rec in records
        if rec.get("type") == "span" and "id" in rec
    }
    out = []
    for rec in records:
        rec = dict(rec)
        rec.pop("id", None)
        parent = rec.pop("parent", None)
        if parent is not None:
            rec["parent_name"] = names.get(parent, "?")
        out.append(rec)
    return out


def _worker_signature(records: list[dict], label: str) -> tuple:
    sig = []
    for rec in records:
        if rec.get("tags", {}).get("worker") == label:
            sig.append((rec.get("t0", rec.get("t", 0.0)), rec.get("name", "")))
    return tuple(sorted(sig))


def _relabel_workers(records: list[dict]) -> list[dict]:
    """Rename worker identity tags by service signature.

    Interchangeable workers (same spec, idle at the same instant) may
    swap which item each picks up under a batch permutation; the
    timeline is unchanged, so two traces that differ only in such tags
    are equal after renaming each worker by *what it did and when*
    rather than by its allocation-order id.
    """
    labels = {
        rec["tags"]["worker"]
        for rec in records
        if isinstance(rec.get("tags"), dict) and "worker" in rec["tags"]
    }
    ranked = sorted(labels, key=lambda lb: (_worker_signature(records, lb), lb))
    mapping = {label: f"w{idx}" for idx, label in enumerate(ranked)}
    out = []
    for rec in records:
        tags = rec.get("tags")
        if isinstance(tags, dict) and "worker" in tags:
            rec = dict(rec)
            rec["tags"] = dict(tags, worker=mapping[tags["worker"]])
        out.append(rec)
    return out


def _canonical(records: list[dict]) -> list[str]:
    return sorted(json.dumps(rec, sort_keys=True) for rec in records)


def _first_divergence(base: list[str], perm: list[str]) -> str:
    """First divergent event with context, regen.py ``--diff`` style."""
    limit = min(len(base), len(perm))
    idx = next((i for i in range(limit) if base[i] != perm[i]), limit)
    lines = [
        f"first divergent event at index {idx} "
        f"(baseline {len(base)} events, permuted {len(perm)})"
    ]
    for i in range(max(0, idx - CONTEXT), idx):
        lines.append(f"  = [{i}] {base[i]}")
    lines.append(f"  - [{idx}] " + (base[idx] if idx < len(base) else "<end of baseline>"))
    lines.append(f"  + [{idx}] " + (perm[idx] if idx < len(perm) else "<end of permuted>"))
    for i in range(idx + 1, min(idx + 1 + CONTEXT, len(base), len(perm))):
        marker = "=" if base[i] == perm[i] else "!"
        lines.append(f"  {marker} [{i}] {perm[i]}")
    return "\n".join(lines)


def classify(base_text: str, perm_text: str) -> tuple[str, str]:
    """Classify a permuted trace against the baseline.

    Returns ``(verdict, detail)`` where detail is non-empty only for
    ``divergent`` verdicts.
    """
    if base_text == perm_text:
        return "identical", ""
    base = _strip_ids(_parse(base_text))
    perm = _strip_ids(_parse(perm_text))
    if _canonical(base) == _canonical(perm):
        return "reordered", ""
    base_r = _canonical(_relabel_workers(base))
    perm_r = _canonical(_relabel_workers(perm))
    if base_r == perm_r:
        return "relabeled", ""
    return "divergent", _first_divergence(base_r, perm_r)


# -- the check -----------------------------------------------------------------


def check_scenario(
    bench_id: str,
    modes: Iterable[str] = MODES,
    seed: int = 1,
    scale: str = "golden",
) -> list[PermutationResult]:
    """Run one scenario unpermuted, then once per permutation mode."""
    from repro.report import scenarios

    base = scenarios.scenario_trace(bench_id, scale)
    results = []
    for mode in modes:
        sanitizers: list = []

        def hook(env, sink, _mode=mode):
            sanitizers.append(enable_sanitizer(env, permute=_mode, seed=seed))

        with tracing_hook(hook):
            perm = scenarios.scenario_trace(bench_id, scale)
        verdict, detail = classify(base, perm)
        races: list = []
        order_warnings: list = []
        batches = units = 0
        for sanitizer in sanitizers:
            report = sanitizer.report()
            races.extend(report["races"])
            order_warnings.extend(report["order_warnings"])
            batches += report["batches"]
            units += report["units"]
        results.append(
            PermutationResult(
                bench_id=bench_id,
                mode=mode,
                verdict=verdict,
                detail=detail,
                races=races,
                order_warnings=order_warnings,
                batches=batches,
                units=units,
            )
        )
    return results


def run_check(
    only: Optional[Iterable[str]] = None,
    modes: Iterable[str] = MODES,
    seed: int = 1,
    scale: str = "golden",
) -> dict:
    """Run the permutation check over registry ids ``only`` (default:
    every scenario) at registry ``scale``; returns the SIMSAN report
    document.  Only the ``golden`` scale is checked for digest drift.

    Raises :class:`KeyError` for an id the registry does not know.
    """
    from repro.report import scenarios

    bench_ids = sorted({scenarios.scenario_id(b) for b in only or scenarios.SCENARIOS})
    pinned = scenarios.pinned_digests()
    results: list[PermutationResult] = []
    drift: list[str] = []
    for bench_id in bench_ids:
        results.extend(check_scenario(bench_id, modes, seed, scale))
        if scale != "golden":
            continue
        # Drift of the *unpermuted* baseline against the pinned digest
        # is a different failure (the golden suite's), but worth
        # flagging here: it means this check compared against a moved
        # target.
        base = scenarios.golden_trace(bench_id)
        if hashlib.sha256(base.encode()).hexdigest() != pinned[bench_id]["sha256"]:
            drift.append(bench_id)
    return {
        "tool": "simsan-permute",
        "seed": seed,
        "scale": scale,
        "modes": list(modes),
        "results": [r.to_json() for r in results],
        "baseline_drift": drift,
        "passed": all(r.passed for r in results) and not drift,
    }


__all__ = [
    "MODES",
    "PASSING",
    "PermutationResult",
    "check_scenario",
    "classify",
    "run_check",
]
