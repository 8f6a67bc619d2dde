"""The simlint engine: parse once, run every applicable rule, filter.

Pipeline per file: parse → annotate parents → build the import map →
run each enabled+scoped rule → drop inline-suppressed findings.
Files that fail to parse (or decode) produce an ERR001 finding rather
than crashing the run (CI should fail loudly, not trace-back).

After the per-file pass, every successfully parsed file joins one
**program pass**: :class:`ProgramRule` subclasses (the RACE family) see
a :class:`ProgramContext` spanning the whole run — unparseable files
are simply absent from it, so one bad file degrades the cross-file
analysis instead of aborting it.  Program findings are filtered by the
same per-path scoping and per-file inline suppressions as file
findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.lint import astutil, suppress
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import ProgramRule, all_rules, known_ids
from repro.lint.suppress import Suppression


class FileContext:
    """Everything a rule needs about one parsed file."""

    def __init__(self, relpath: str, source: str, config: LintConfig):
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.config = config
        self.tree: ast.Module = ast.parse(source, filename=relpath)
        astutil.attach_parents(self.tree)
        self.imports = astutil.build_import_map(self.tree)
        self.is_entry_point = config.is_entry_point(relpath)

    def line(self, line_no: int) -> str:
        if 0 < line_no <= len(self.lines):
            return self.lines[line_no - 1]
        return ""


class ProgramContext:
    """Everything a :class:`~repro.lint.rules.ProgramRule` sees.

    Holds every file that parsed in this run and builds the
    whole-program :class:`~repro.lint.callgraph.ProgramGraph` lazily on
    first access (so runs with the RACE family disabled never pay for
    it).
    """

    def __init__(self, files: dict[str, FileContext], config: LintConfig):
        self.files = files
        self.config = config
        self._graph = None

    @property
    def graph(self):
        if self._graph is None:
            from repro.lint.callgraph import ProgramGraph

            self._graph = ProgramGraph.build(self.files)
        return self._graph

    def context(self, relpath: str) -> Optional[FileContext]:
        return self.files.get(relpath)

    def line(self, relpath: str, line_no: int) -> str:
        ctx = self.files.get(relpath)
        return ctx.line(line_no) if ctx is not None else ""


@dataclass
class LintResult:
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def lint_source(
    source: str,
    relpath: str = "src/repro/module.py",
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Lint one in-memory source blob (the unit-test entry point).

    The blob also runs as a one-file program, so ProgramRules (the RACE
    family) fire from the same fixtures as file rules.
    """
    config = config or LintConfig()
    result = LintResult(files_checked=1)
    parsed = _lint_one(source, relpath, config, result)
    _run_program_pass(
        {relpath: parsed} if parsed is not None else {}, config, result
    )
    result.findings.sort()
    return result


def lint_paths(
    paths: Iterable[Path],
    root: Path,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths`` (files or directories)."""
    config = config or LintConfig()
    result = LintResult()
    # Resolve + dedupe so overlapping arguments (`src src/repro`) lint
    # each file once instead of double-reporting and double-counting.
    files = sorted({p.resolve() for p in _collect(paths)})
    parsed_files: dict[str, tuple[FileContext, list[Suppression]]] = {}
    for path in files:
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.findings.append(
                Finding(relpath, 1, 0, "ERR001", f"unreadable file: {exc}")
            )
            continue
        result.files_checked += 1
        parsed = _lint_one(source, relpath, config, result)
        if parsed is not None:
            parsed_files[relpath] = parsed
    _run_program_pass(parsed_files, config, result)
    result.findings.sort()
    return result


def _collect(paths: Iterable[Path]) -> list[Path]:
    out: list[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py":
            out.append(path)
    return out


def _lint_one(
    source: str, relpath: str, config: LintConfig, result: LintResult
) -> Optional[tuple[FileContext, list[Suppression]]]:
    """Run the per-file rules; return the parsed context for the program
    pass (None when the file does not parse)."""
    suppressions, directive_problems = suppress.parse_suppressions(source, relpath)
    lines = source.splitlines()
    try:
        ctx = FileContext(relpath, source, config)
    except SyntaxError as exc:
        result.findings.append(
            Finding(
                relpath,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                "ERR001",
                f"syntax error: {exc.msg}",
            )
        )
        return None

    raw: list[Finding] = []
    for rule in all_rules():
        if isinstance(rule, ProgramRule):
            continue  # runs once, in the program pass
        if not config.rule_enabled(rule.id, rule.family):
            continue
        if not config.rule_applies(rule.id, rule.family, relpath):
            continue
        raw.extend(rule.check(ctx))

    kept, suppressed = suppress.apply_suppressions(raw, suppressions)
    result.findings.extend(kept)
    result.suppressed.extend(suppressed)
    # Directive hygiene is never suppressible and ignores scoping.
    result.findings.extend(directive_problems)
    meta_ids = {"SUP001", "SUP002", "ERR001"}
    result.findings.extend(
        suppress.unknown_rule_findings(
            suppressions, known_ids() | meta_ids, relpath, lines
        )
    )
    return ctx, suppressions


def _run_program_pass(
    parsed_files: dict[str, tuple[FileContext, list[Suppression]]],
    config: LintConfig,
    result: LintResult,
) -> None:
    """Run every enabled ProgramRule over the parsed files as one unit."""
    rules = [
        r
        for r in all_rules()
        if isinstance(r, ProgramRule) and config.rule_enabled(r.id, r.family)
    ]
    if not rules or not parsed_files:
        return
    program = ProgramContext(
        {relpath: ctx for relpath, (ctx, _) in parsed_files.items()}, config
    )
    for rule in rules:
        # Program findings can land in any file; scope by the finding's
        # own path, and honor that file's inline suppressions.
        raw = [
            f
            for f in rule.check_program(program)
            if config.rule_applies(rule.id, rule.family, f.path)
        ]
        by_path: dict[str, list[Finding]] = {}
        for f in raw:
            by_path.setdefault(f.path, []).append(f)
        for relpath, group in by_path.items():
            sups = (
                parsed_files[relpath][1] if relpath in parsed_files else []
            )
            kept, suppressed = suppress.apply_suppressions(group, sups)
            result.findings.extend(kept)
            result.suppressed.extend(suppressed)
