"""Measurement harness and command line of the benchmark suite.

One *run* measures one workload in one process: an untimed warm-up
sample on the fixed seed ``WARMUP_INDEX`` (outside every measured set),
then closed-loop samples (the next starts when the previous one
returns), with sample ``i`` on seed ``seed * 10_000 + i``.  Each
sample's inputs are generated and ``gc.collect()`` runs before its
timed region.  Every sample is timed next to the frozen reference loop
of :mod:`.calibrate` and reported in calibrated seconds; raw seconds are
kept in the run output but not gated.  Every sample's simulated outcome
is checked: the workload's invariants for any seed, and the committed
digest in ``expected.json`` for the warm-up sample and, at the default
seed, for every sample.

Run length is fixed per workload (``Workload.samples``), the same on
every commit and every machine.  With ``--trace 1`` the first samples
run twice, untraced and then under :class:`.layers.LayerTrace`; the
per-layer metrics come from the traced copy, whose outcomes must equal
the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from benchmarks.suite.calibrate import REF0_S, time_reference
from benchmarks.suite.compare import quartiles
from benchmarks.suite.layers import METRICS as LAYER_METRICS
from benchmarks.suite.layers import LAYERS, LayerTrace, layer_metrics, sample_breakdown
from benchmarks.suite.workloads import OUT_DIR, WORKLOADS, Workload

SUITE = Path(__file__).resolve().parent
EXPECTED = SUITE / "expected.json"

#: Gated end-to-end metrics: name -> unit (bounds live in BENCHMARK.json).
E2E_METRICS = {
    "result_s.p50": "s",
    "result_s.p75": "s",
    "setup_s": "s",
    "tasks_per_s": "tasks/s",
    "peak_rss_mb": "MB",
}

#: Seed offset of the untimed warm-up sample, outside the measured set.
WARMUP_INDEX = 9_999
#: Samples a ``--trace 1`` run traces (the smoke test asks for fewer).
TRACED_SAMPLES = 5


def sample_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def digest(outcome: dict) -> str:
    """Short digest of a simulated outcome (floats at full precision)."""
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(name: str, seed: int) -> tuple:
    """Committed digests of ``name``: the warm-up sample's, which every
    run checks, and the samples' when ``seed`` is the seed
    ``expected.json`` was generated for."""
    if not EXPECTED.is_file():
        return None, []
    doc = json.loads(EXPECTED.read_text())
    entry = doc.get("workloads", {}).get(name, {})
    samples = entry.get("samples", []) if doc.get("seed") == seed else []
    return entry.get("warmup"), list(samples)


def run_samples(workload: Workload, params: dict, seed: int, indices, *,
                store=None, expected=None) -> list:
    """Run samples closed-loop; one record per sample attempted.

    ``expected`` maps sample index to committed outcome digest.
    """
    expected = expected or {}
    records = []
    ref_before = time_reference()
    for index in indices:
        inputs = workload.inputs(sample_seed(seed, index), params)
        gc.collect()
        root = store.begin_sample(index) if store is not None else -1
        sample = error = None
        t0 = perf_counter()
        try:
            sample = workload.run(inputs, params)
        except Exception:  # a failed sample is counted, and the run goes on
            error = traceback.format_exc()
        raw = perf_counter() - t0
        if store is not None:
            store.end_sample(root)
        ref_after = time_reference()
        scale = REF0_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        rec = {"index": index, "raw_s": raw, "scale": scale, "problems": []}
        if sample is None:
            print(error, file=sys.stderr)
            rec["problems"].append(error.strip().splitlines()[-1])
        else:
            outcome = sample.outcome
            rec.update(
                result_s=raw * scale,
                setup_s=sample.setup_s * scale,
                report_s=sample.report_s * scale,
                tasks=sample.tasks,
                digest=digest(outcome),
            )
            del sample  # frees the simulation outside the timed region
            rec["problems"] += workload.check(inputs, outcome, params)
            if expected.get(index, rec["digest"]) != rec["digest"]:
                rec["problems"].append(
                    f"outcome digest {rec['digest']} != expected {expected[index]}"
                )
        workload.cleanup(inputs)
        records.append(rec)
    return records


def end_to_end(records: list) -> dict:
    """The gated metrics over the samples that passed their checks."""
    good = [r for r in records if not r["problems"]]
    if not good:
        return {}
    result = [r["result_s"] for r in good]
    return {
        "result_s.p50": statistics.median(result),
        "result_s.p75": quartiles(result)[2],
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "tasks_per_s": sum(r["tasks"] for r in good) / sum(result),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _extra(records: list) -> dict:
    """Reported beside the gated metrics, never gated."""
    good = [r for r in records if not r["problems"]]
    out = {"samples": len(records)}
    if good:
        out["report_s"] = statistics.median(r["report_s"] for r in good)
        out["raw_result_s.p50"] = statistics.median(r["raw_s"] for r in good)
        out["ref_s.median"] = statistics.median(REF0_S / r["scale"] for r in good)
    return out


def _layers(workload: Workload, params: dict, seed: int, samples: int,
            expected: dict) -> tuple:
    untraced = run_samples(workload, params, seed, range(samples), expected=expected)
    with LayerTrace() as trace:
        traced = run_samples(
            workload, params, seed, range(samples), store=trace.store, expected=expected
        )
    for plain, timed in zip(untraced, traced):
        if plain.get("digest") != timed.get("digest"):
            timed["problems"].append("traced outcome differs from the untraced one")
    OUT_DIR.mkdir(exist_ok=True)
    trace.store.write_jsonl(OUT_DIR / f"{workload.name}.spans.jsonl")
    breakdown = sample_breakdown(trace.store)
    per_sample = []
    for rec in traced:
        if rec["index"] in breakdown and not rec["problems"]:
            m = layer_metrics(breakdown[rec["index"]])
            m["self_s"] = {k: v * rec["scale"] for k, v in m["self_s"].items()}
            per_sample.append(m)
    metrics: dict = {}
    extra: dict = {}
    good_plain = [r["result_s"] for r in untraced if not r["problems"]]
    good_traced = [r["result_s"] for r in traced if not r["problems"]]
    if per_sample and good_plain:
        for name in LAYER_METRICS:
            if name in per_sample[0]:
                metrics[name] = statistics.median(m[name] for m in per_sample)
        metrics["trace.sample_s"] = statistics.median(good_traced)
        metrics["trace.overhead"] = metrics["trace.sample_s"] / statistics.median(good_plain)
        extra["self_s"] = {
            layer: statistics.median(m["self_s"][layer] for m in per_sample)
            for layer in (*LAYERS, "other")
        }
    return untraced + traced, metrics, extra


def run_workload(name: str, *, seed: int = 0, samples: int | None = None,
                 layers: bool = False, smoke: bool = False,
                 expected: tuple | None = None) -> dict:
    """Measure one workload in this process; returns the run output.

    ``expected`` is ``(warm-up digest, sample digests)``; by default it
    comes from ``expected.json`` (nothing at smoke scale).  The warm-up
    sample always runs on seed ``WARMUP_INDEX``, so every run checks at
    least one committed digest whatever its ``seed``.
    """
    workload = WORKLOADS[name]
    params = workload.smoke if smoke else workload.params
    if expected is None:
        expected = (None, []) if smoke else load_expected(name, seed)
    warm_digest, sample_digests = expected
    records = run_samples(
        workload, params, 0, [WARMUP_INDEX],
        expected={WARMUP_INDEX: warm_digest} if warm_digest else None,
    )
    expected_samples = dict(enumerate(sample_digests))
    if layers:
        measured, metrics, extra = _layers(
            workload, params, seed, samples or TRACED_SAMPLES, expected_samples
        )
        units = LAYER_METRICS
    else:
        measured = run_samples(
            workload, params, seed, range(samples or workload.samples),
            expected=expected_samples,
        )
        metrics, extra = end_to_end(measured), _extra(measured)
        units = E2E_METRICS
    records += measured
    failed = sum(1 for r in records if r["problems"])
    extra["failed_frac"] = failed / len(records)
    return {
        "workload": name,
        "seed": seed,
        "mode": "layers" if layers else "end_to_end",
        "smoke": smoke,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": extra,
        "records": records,
    }


# -- output ------------------------------------------------------------------------


def _print_run(out: dict) -> None:
    print(
        f"{out['workload']}: seed {out['seed']}, {out['attempted']} samples attempted, "
        f"{out['failed']} failed ({out['mode']})"
    )
    for name, m in out["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    extra = out["extra"]
    for name in ("report_s", "failed_frac", "raw_result_s.p50", "ref_s.median"):
        if name in extra:
            print(f"  {name:<26} {extra[name]:>14.6g}  (not gated)")
    if "self_s" in extra:
        print("  self_s per layer (calibrated s, per-sample median):")
        for layer, value in extra["self_s"].items():
            print(f"    {layer:<12} {value:>12.6f}")
    for rec in out["records"]:
        for problem in rec["problems"]:
            print(f"  sample {rec['index']}: {problem}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    })


def _write_expected(name: str, seed: int, records: list) -> None:
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    if doc.get("seed") != seed:
        doc = {"seed": seed, "workloads": {}}
    warmup, *samples = records
    doc["workloads"][name] = {
        "warmup": warmup["digest"], "samples": [r["digest"] for r in samples],
    }
    doc["workloads"] = dict(sorted(doc["workloads"].items()))
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n")


def _run_one(args, name: str) -> int:
    out = run_workload(
        name, seed=args.seed, layers=bool(args.trace),
        expected=(None, []) if args.regen_expected else None,
    )
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "workloads": {name: out}}))
    if args.regen_expected and not out["failed"]:
        _write_expected(name, args.seed, out["records"])
    _print_run(out)
    print(_result_line(not out["failed"], out["attempted"], out["failed"], out["metrics"]))
    return 1 if out["failed"] or not out["metrics"] else 0


def _run_all(args, names: list) -> int:
    """Each workload in its own fresh process, one after another."""
    OUT_DIR.mkdir(exist_ok=True)
    runs = {}
    code = 0
    for name in names:
        path = OUT_DIR / f"{name}.run.json"
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(SUITE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(path)]
        if args.regen_expected:
            cmd.append("--regen-expected")
        code |= subprocess.run(cmd, cwd=SUITE.parent.parent).returncode
        if path.is_file():
            runs[name] = json.loads(path.read_text())["workloads"][name]
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "workloads": runs}))
    print("\nsummary:")
    for name, out in runs.items():
        for metric, m in out["metrics"].items():
            print(f"  {name:<16} {metric:<26} {m['value']:>14.6g} {m['unit']}")
    attempted = sum(o["attempted"] for o in runs.values())
    failed = sum(o["failed"] for o in runs.values())
    metrics = {f"{n}/{k}": m for n, o in runs.items() for k, m in o["metrics"].items()}
    ok = not code and len(runs) == len(names) and not failed
    print(_result_line(ok, attempted, failed, metrics))
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from benchmarks.suite.compare import main as compare

        return compare(argv[1:])
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="Calibrated end-to-end and per-layer benchmark of the simulator.",
    )
    ap.add_argument("--workload", default=",".join(WORKLOADS),
                    help="comma-separated workloads (default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="accepted for the benchmark command line and not used: "
                         "each workload runs a fixed number of samples")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics instead of end-to-end ones")
    ap.add_argument("--out", default=None, help="write the full run output here")
    ap.add_argument("--regen-expected", action="store_true",
                    help="rewrite expected.json from this run's outcomes")
    args = ap.parse_args(argv)
    names = [n for n in args.workload.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        ap.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    if args.regen_expected and args.trace:
        ap.error("--regen-expected needs an end-to-end run (--trace 0)")
    if len(names) == 1:
        return _run_one(args, names[0])
    return _run_all(args, names)
