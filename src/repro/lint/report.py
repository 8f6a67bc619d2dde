"""Human-readable and JSON renderings of a LintResult."""

from __future__ import annotations

import json

from repro.lint.engine import LintResult
from repro.lint.rules import all_rules


def render_text(result: LintResult, verbose: bool = False) -> str:
    lines: list[str] = [f.render() for f in result.findings]
    if verbose:
        for finding, sup in result.suppressed:
            lines.append(
                f"{finding.render()}  [suppressed: {sup.justification}]"
            )
    summary = (
        f"{result.files_checked} files checked: "
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    lines.append(summary if not lines else f"\n{summary}")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    doc = {
        "tool": "simlint",
        "version": 1,
        "files_checked": result.files_checked,
        "findings": [f.to_json() for f in result.findings],
        "suppressed": [
            {**f.to_json(), "justification": s.justification}
            for f, s in result.suppressed
        ],
        "exit_code": result.exit_code,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def render_rule_catalog() -> str:
    """The ``--list-rules`` listing (also the source for docs/LINTING.md)."""
    blocks = []
    for rule in all_rules():
        blocks.append(
            f"{rule.id} [{rule.family}] {rule.summary}\n"
            f"    {rule.rationale}"
        )
    return "\n".join(blocks)
