"""``compare``: parent runs against change runs, per workload and metric.

    python -m benchmarks.suite compare --base A*.json --change B*.json

Each file is one run's ``--out`` document.  For every workload and
end-to-end metric this prints each side's median and quartiles, the
fraction of (base, change) pairs the change wins (files pair up in the
order given; ties count for neither side), and a verdict against the
metric's bound from ``BENCHMARK.json``:

- ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the base runs' own quartile spread;
- ``within bound``: the change's median is no worse than the base's by
  more than the bound;
- ``worse``: it is;
- ``unresolved``: either side's run-to-run spread (quartile distance
  over median) is wider than the bound, unless every change run beats
  every base run.

Exit status 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def _values(runs: list, workload: str, metric: str) -> list:
    out = []
    for run in runs:
        got = run.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric)
        if got is not None:
            out.append(got["value"])
    return out


def verdict(base: list, change: list, lower_is_better: bool, bound: float) -> dict:
    """Compare one metric's base and change runs (see module docstring)."""
    sign = 1.0 if lower_is_better else -1.0
    bq, cq = quartiles(base), quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    spread_b = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
    spread_c = (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0
    worse_by = sign * (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    if max(spread_b, spread_c) > bound:
        separated = all(sign * (b - c) > 0 for b in base for c in change)
        label = "improved" if separated else "unresolved"
    elif (
        pairs and wins >= 0.9 * len(pairs) and worse_by < 0
        and abs(cq[1] - bq[1]) > bq[2] - bq[0]
    ):
        label = "improved"
    elif worse_by <= bound:
        label = "within bound"
    else:
        label = "worse"
    return {
        "base": bq, "change": cq, "win_frac": wins / len(pairs) if pairs else 0.0,
        "worse_by": worse_by, "spread": max(spread_b, spread_c), "verdict": label,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.suite compare")
    ap.add_argument("--base", nargs="+", required=True, help="parent run outputs")
    ap.add_argument("--change", nargs="+", required=True, help="change run outputs")
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base = [json.loads(Path(p).read_text()) for p in args.base]
    change = [json.loads(Path(p).read_text()) for p in args.change]
    workloads = sorted(
        set().union(*(r.get("workloads", {}) for r in base))
        & set().union(*(r.get("workloads", {}) for r in change))
    )
    print(f"{len(base)} base run(s), {len(change)} change run(s)")
    print(f"{'workload':<16} {'metric':<14} {'base q1/med/q3':<32} "
          f"{'change q1/med/q3':<32} {'wins':>5} {'worse':>7}  verdict")
    worse = False
    for workload in workloads:
        for metric in spec["end_to_end"]:
            b = _values(base, workload, metric["name"])
            c = _values(change, workload, metric["name"])
            if not b or not c:
                continue
            v = verdict(b, c, metric["better"] == "lower", metric["bound"])
            worse |= v["verdict"] == "worse"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(
                f"{workload:<16} {metric['name']:<14} {fmt.format(*v['base']):<32} "
                f"{fmt.format(*v['change']):<32} {v['win_frac']:>5.2f} "
                f"{v['worse_by'] * 100:>+6.1f}%  {v['verdict']}"
                f" (bound {metric['bound'] * 100:.0f}%)"
            )
    return 1 if worse else 0
