"""``python -m repro.report`` — unified run-report CLI.

Two input modes:

- a JSONL trace file written by :func:`repro.obs.export.write_jsonl`::

      python -m repro.report run.trace.jsonl --rule "utilization >= 0.85"

- a named benchmark scenario (reduced scale by default)::

      python -m repro.report --bench E2
      python -m repro.report --bench E2 --full   # paper-scale parameters

Either way the tool prints the ASCII report, writes the
machine-readable ``BENCH_<id>.json`` verdict under ``--out``, and
exits non-zero when a ``severity=critical`` SLO rule is still firing
at the end of the run — the contract the CI smoke job relies on.

A trace file is parsed line by line into a compact
:class:`~repro.obs.stream.StubTrace` (no tags beyond ``state``, no
events, no instants), so its verdict equals a lossless reload's while
the store stays small; a scenario run is analysed from its own tracer.
A trace file that cannot be read is a usage error (exit 2), like a
bad rule or a missing file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.obs.alerts import Rule, RuleError
from repro.obs.stream import StubTrace
from repro.report import build_report, write_verdict
from repro.report.scenarios import SCENARIOS, run_scenario


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Analyze a JSONL trace or run a named benchmark and "
        "emit a unified run report (ASCII + JSON verdict).",
    )
    parser.add_argument(
        "trace",
        nargs="?",
        help="JSONL trace file (from repro.obs.export.write_jsonl)",
    )
    parser.add_argument(
        "--bench",
        choices=sorted(SCENARIOS),
        help="run a named benchmark scenario instead of reading a trace",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the scenario at paper scale (slow) instead of reduced",
    )
    parser.add_argument(
        "--resume",
        metavar="CKPT_DIR",
        help="continue an interrupted checkpointed run (see repro.ckpt) "
        "and report it; verdicts and exit code are identical to an "
        "uninterrupted batch run",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results",
        help="directory for the BENCH_<id>.json verdict (default: %(default)s)",
    )
    parser.add_argument(
        "--name",
        help="bench id for trace-file mode (default: the file stem)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="EXPR",
        help='critical SLO rule, e.g. "utilization >= 0.85" (repeatable)',
    )
    parser.add_argument(
        "--warn",
        action="append",
        default=[],
        metavar="EXPR",
        help="warning-severity SLO rule (repeatable)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the JSON verdict to stdout instead of the ASCII report",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available benchmark scenarios and exit",
    )
    return parser.parse_args(argv)


def _extra_rules(args) -> list:
    rules = []
    for expr in args.rule:
        rules.append(Rule(expr, severity="critical"))
    for expr in args.warn:
        rules.append(Rule(expr, severity="warning"))
    return rules


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])

    if args.list:
        for bench_id in sorted(SCENARIOS):
            s = SCENARIOS[bench_id]
            print(f"{bench_id}  {s.title}")
        return 0

    try:
        extra = _extra_rules(args)
    except RuleError as exc:
        print(f"error: bad rule: {exc}", file=sys.stderr)
        return 2

    if args.bench and args.trace:
        print("error: pass a trace file OR --bench, not both", file=sys.stderr)
        return 2

    if args.resume:
        if args.bench or args.trace:
            print(
                "error: --resume takes its scenario from the checkpoint "
                "manifest; don't combine it with --bench or a trace file",
                file=sys.stderr,
            )
            return 2
        from repro.ckpt import SnapshotError
        from repro.ckpt import resume as ckpt_resume
        from repro.ckpt.format import read_manifest

        try:
            result = ckpt_resume(args.resume)
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if result.report is None:
            # The run already completed in a previous invocation; the
            # manifest carries its verdict document verbatim.
            manifest = read_manifest(args.resume) or {}
            verdict = manifest.get("verdict")
            if verdict is None:
                print(
                    f"error: {args.resume!r} finished without a stored "
                    "verdict (pre-verdict checkpoint layout?)",
                    file=sys.stderr,
                )
                return 2
            print(json.dumps(verdict, indent=2, sort_keys=True))
            return 0 if verdict.get("status") == "pass" else 1
        report = result.report
    elif args.bench:
        report = run_scenario(args.bench, full=args.full)
        if extra:
            # User-supplied rules join the scenario's own; the tracer is
            # not retained on the report, so they evaluate against the
            # headline scalars.
            from repro.obs.alerts import evaluate_rules

            extra_report = evaluate_rules(
                extra, trace=None, context=report.headline, record=False
            )
            if report.alert_report is None:
                report.alert_report = extra_report
            else:
                report.alert_report.outcomes.extend(extra_report.outcomes)
    elif args.trace:
        path = pathlib.Path(args.trace)
        if not path.exists():
            print(f"error: no such trace file: {path}", file=sys.stderr)
            return 2
        try:
            trace = StubTrace.from_jsonl_path(path)
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is one
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        try:
            report = build_report(
                args.name or path.stem.split(".")[0],
                trace,
                title=f"trace {path.name}",
                rules=extra,
            )
        except RuleError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        print("error: pass a trace file or --bench (see --help)", file=sys.stderr)
        return 2

    verdict_path = write_verdict(report, args.out)
    if args.json:
        print(json.dumps(report.to_verdict(), indent=2, sort_keys=True))
    else:
        print(report.render_ascii())
        print(f"\n[verdict written to {verdict_path}]")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
