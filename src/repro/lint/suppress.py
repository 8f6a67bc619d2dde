"""Inline suppressions.

Syntax, as a comment on the flagged line (or a comment-only line
immediately above it)::

    rng = np.random.default_rng(hash(key))  # simlint: disable=DET003 -- ints only, hash is stable

The justification after ``--`` is **required**: a suppression without a
written reason is itself reported (SUP001), and a suppression naming a
rule the registry does not know is reported too (SUP002) so typos do
not silently disable nothing.  Comments are found with the tokenize
module, so the directive text appearing inside a string literal (as it
does in this very module) is never misparsed as a directive.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Iterable

from repro.lint.findings import Finding

#: A comment attempting a directive; one that then fails
#: :data:`_DIRECTIVE` is malformed (SUP001).  A comment merely naming
#: simlint is not an attempt.
_ATTEMPT = re.compile(r"#\s*simlint\s*:")
_DIRECTIVE = re.compile(
    r"#\s*simlint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    line: int  # line the directive comment sits on
    rules: tuple[str, ...]
    justification: str
    own_line: bool  # comment-only line (applies to the next code line)
    #: Line the directive applies to: its own line for trailing
    #: comments, else the next *code* line — skipping blank and
    #: comment-only lines, so stacked directives above one statement
    #: all land on it instead of on each other.
    target: int = 0

    def covers(self, finding_line: int) -> bool:
        return finding_line == (self.target or self.line)


def parse_suppressions(source: str, relpath: str) -> tuple[list[Suppression], list[Finding]]:
    """Extract directives and the findings for malformed ones."""
    suppressions: list[Suppression] = []
    problems: list[Finding] = []
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [], []  # the engine reports the parse error separately
    for tok in tokens:
        if tok.type != tokenize.COMMENT or not _ATTEMPT.search(tok.string):
            continue
        line_no = tok.start[0]
        match = _DIRECTIVE.search(tok.string)
        if match is None:
            problems.append(
                Finding(
                    path=relpath,
                    line=line_no,
                    col=tok.start[1],
                    rule="SUP001",
                    message=(
                        "malformed simlint directive; expected "
                        "'# simlint: disable=RULE -- justification'"
                    ),
                    source_line=_line(lines, line_no),
                )
            )
            continue
        rules = tuple(
            r.strip() for r in match.group("rules").split(",") if r.strip()
        )
        why = (match.group("why") or "").strip()
        if not why:
            problems.append(
                Finding(
                    path=relpath,
                    line=line_no,
                    col=tok.start[1],
                    rule="SUP001",
                    message=(
                        "suppression without a justification; append "
                        "'-- <reason>' explaining why the finding is safe"
                    ),
                    source_line=_line(lines, line_no),
                )
            )
            continue
        own_line = _line(lines, line_no).lstrip().startswith("#")
        suppressions.append(
            Suppression(
                line=line_no,
                rules=rules,
                justification=why,
                own_line=own_line,
                target=_target_line(lines, line_no, own_line),
            )
        )
    return suppressions, problems


def _target_line(lines: list[str], line_no: int, own_line: bool) -> int:
    """The code line a directive applies to.

    Trailing comments cover their own line.  Own-line directives cover
    the next line that holds code: further comment-only lines (e.g. a
    second stacked directive) are skipped, so

    ::

        # simlint: disable=DET004 -- iteration order pinned below
        # simlint: disable=OBS002 -- progress print, not telemetry
        print(sorted(pending))

    suppresses both rules on the ``print`` line.  (Previously each
    directive covered exactly the next physical line, so the first one
    above landed on the second comment and silently suppressed
    nothing.)  A *blank* line is not skipped: it detaches the
    directive, keeping suppressions tightly scoped to adjacent code.
    """
    if not own_line:
        return line_no
    for offset in range(line_no + 1, len(lines) + 1):
        text = _line(lines, offset).strip()
        if not text:
            break  # blank line: the directive attaches to nothing
        if not text.startswith("#"):
            return offset
    return line_no  # dangling directive: covers nothing real


def unknown_rule_findings(
    suppressions: Iterable[Suppression], known: set[str], relpath: str, lines: list[str]
) -> list[Finding]:
    out = []
    for sup in suppressions:
        for rule in sup.rules:
            if rule not in known:
                out.append(
                    Finding(
                        path=relpath,
                        line=sup.line,
                        col=0,
                        rule="SUP002",
                        message=f"suppression names unknown rule {rule!r}",
                        source_line=_line(lines, sup.line),
                    )
                )
    return out


def apply_suppressions(
    findings: list[Finding], suppressions: list[Suppression]
) -> tuple[list[Finding], list[tuple[Finding, Suppression]]]:
    """Split findings into (kept, suppressed-with-their-directive)."""
    kept: list[Finding] = []
    suppressed: list[tuple[Finding, Suppression]] = []
    for finding in findings:
        hit = next(
            (
                s
                for s in suppressions
                if finding.rule in s.rules and s.covers(finding.line)
            ),
            None,
        )
        if hit is None:
            kept.append(finding)
        else:
            suppressed.append((finding, hit))
    return kept, suppressed


def _line(lines: list[str], line_no: int) -> str:
    return lines[line_no - 1] if 0 < line_no <= len(lines) else ""
