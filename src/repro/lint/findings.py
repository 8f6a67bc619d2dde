"""Finding records and fingerprints.

A :class:`Finding` is one rule violation at one source location.  Its
*fingerprint* deliberately omits the line number: it is the rule id,
the file path, and the stripped source text of the flagged line.  The
JSON report and SARIF ``partialFingerprints`` carry it, so a code host
can track one finding across unrelated edits above it while treating
an edit of the offending line itself as a new finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # project-relative posix path
    line: int  # 1-based
    col: int  # 0-based, as reported by the ast module
    rule: str  # e.g. "DET001"
    message: str
    source_line: str = field(default="", compare=False)

    def fingerprint(self) -> str:
        """Stable identity across reports (line-number free)."""
        return f"{self.rule}|{self.path}|{self.source_line.strip()}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }
