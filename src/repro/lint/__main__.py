"""CLI: ``python -m repro.lint [paths…]``.

Exit codes: 0 clean, 1 findings, 2 usage/internal error — so CI can
gate on it directly.  ``--format json`` writes the machine-readable
report to stdout (or ``--out FILE``) for artifact upload;
``--format sarif`` emits SARIF 2.1.0 for code-host ingestion.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.config import find_project_root, load_config
from repro.lint.engine import lint_paths
from repro.lint.report import render_json, render_rule_catalog, render_text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: determinism & sim-correctness static analysis",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: [tool.simlint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="report format (default: human)",
    )
    parser.add_argument("--out", metavar="FILE", help="also write the report to FILE")
    parser.add_argument(
        "--config", metavar="PYPROJECT", help="explicit pyproject.toml to read"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="also show suppressed findings"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rule_catalog())
        return 0

    root = find_project_root(Path.cwd())
    try:
        config = load_config(root, Path(args.config) if args.config else None)
    except Exception as exc:  # tomllib decode errors, unreadable file
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return 2

    if args.paths:
        # Explicit CLI paths behave like any other tool's: cwd-relative.
        paths = [Path(p) for p in args.paths]
    else:
        # Config-derived defaults are project-relative, so the default
        # invocation works from any subdirectory of the repo.
        paths = [
            Path(p) if Path(p).is_absolute() else root / p for p in config.paths
        ]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such path(s): {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    result = lint_paths(paths, root=root, config=config)

    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        from repro.lint.sarif import render_sarif

        report = render_sarif(result)
    else:
        report = render_text(result, args.verbose)
    print(report)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report + "\n", encoding="utf-8")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
