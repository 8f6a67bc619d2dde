"""CLI for the simsan batch-permutation checker.

Usage (from any directory; the scenarios come from the registry in
:mod:`repro.report.scenarios`)::

    python -m repro.sanitizer                     # all of E1-E8
    python -m repro.sanitizer --only E2,E5        # a subset (case-insensitive)
    python -m repro.sanitizer --out SIMSAN.json   # machine report

Exit codes: 0 all scenarios pass, 1 at least one divergent trace,
same-instant race or golden-digest drift, 2 usage error (an unknown
bench id or permutation mode).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.report.scenarios import scenario_id
from repro.sanitizer.permute import MODES, run_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--only",
        help="comma-separated bench ids (default: every golden scenario)",
    )
    parser.add_argument(
        "--modes",
        default=",".join(MODES),
        help=f"comma-separated permutation modes (default: {','.join(MODES)})",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="shuffle seed (default: 1)"
    )
    parser.add_argument(
        "--out", type=Path, help="also write the JSON report to this path"
    )
    args = parser.parse_args(argv)

    try:
        only = [scenario_id(b) for b in (args.only or "").split(",") if b.strip()]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for mode in modes:
        if mode not in MODES:
            print(f"error: unknown mode {mode!r} (choose from {', '.join(MODES)})",
                  file=sys.stderr)
            return 2

    report = run_check(only=only, modes=modes, seed=args.seed)

    for res in report["results"]:
        status = "ok  " if res["passed"] else "FAIL"
        extra = f", {len(res['races'])} race(s)" if res["races"] else ""
        if res["order_warnings"]:
            extra += f", {len(res['order_warnings'])} order warning(s)"
        print(f"{status} {res['bench_id']} {res['mode']:<7} -> {res['verdict']}"
              f" ({res['batches']} batches, {res['units']} units{extra})")
        if res["detail"]:
            for line in res["detail"].splitlines():
                print(f"     {line}")
        for race in res["races"]:
            print(f"     race: {json.dumps(race, sort_keys=True)}")
    for bench_id in report["baseline_drift"]:
        print(f"WARN {bench_id}: unpermuted baseline drifted from the pinned "
              "golden digest (fix the golden suite first)")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
