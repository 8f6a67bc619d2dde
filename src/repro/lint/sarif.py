"""SARIF 2.1.0 rendering of a LintResult.

SARIF (Static Analysis Results Interchange Format) is the OASIS
standard that code-hosting UIs ingest for inline annotations — one
``run`` with the simlint tool descriptor and rule catalog, one
``result`` per live finding.  Inline-suppressed findings are included
with SARIF's native ``suppressions`` property (``kind: inSource``) so
the upload reflects the same triage state as the text/JSON reports.

The rendering is byte-stable for a given result (sorted keys, no
timestamps, no absolute paths): CI can diff two uploads directly.
"""

from __future__ import annotations

import json

from repro.lint.engine import LintResult
from repro.lint.rules import all_rules

#: SARIF schema pinned to the 2.1.0 final spec.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def _rule_descriptor(rule) -> dict:
    return {
        "id": rule.id,
        "shortDescription": {"text": rule.summary},
        "fullDescription": {"text": rule.rationale},
        "properties": {"family": rule.family},
        "defaultConfiguration": {"level": "warning"},
    }


def _location(finding) -> dict:
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": finding.path, "uriBaseId": "PROJECTROOT"},
            "region": {
                "startLine": finding.line,
                "startColumn": finding.col + 1,
                "snippet": {"text": finding.source_line},
            },
        }
    }


def _result(finding, suppression=None) -> dict:
    doc = {
        "ruleId": finding.rule,
        "level": "warning",
        "message": {"text": finding.message},
        "locations": [_location(finding)],
        "partialFingerprints": {"simlint/v1": finding.fingerprint()},
    }
    if suppression is not None:
        # "inSource" = an inline disable directive next to the line.
        sup = {"kind": "inSource"}
        if suppression.justification:
            sup["justification"] = suppression.justification
        doc["suppressions"] = [sup]
    return doc


def render_sarif(result: LintResult) -> str:
    """Render ``result`` as a SARIF 2.1.0 log (byte-stable)."""
    results = [_result(f) for f in result.findings]
    results += [_result(f, s) for f, s in result.suppressed]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": "docs/LINTING.md",
                        "rules": [_rule_descriptor(r) for r in all_rules()],
                    }
                },
                "columnKind": "utf16CodeUnits",
                "originalUriBaseIds": {"PROJECTROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)


__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif"]
