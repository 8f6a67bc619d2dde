"""Conservative autofixes for mechanically-safe findings (``--fix``).

Two fixers, both deliberately narrow:

``DET004`` — iteration over an unordered set expression
    Wraps the iterable in ``sorted(...)`` when the expression sits on a
    single line.  ``sorted()`` returns a list, so the rewritten code no
    longer matches the rule: applying the fixer twice is a no-op.

``OBS002`` — ``print()`` in library code
    Rewrites single-line, single-positional-argument, keyword-free
    calls to ``logging.getLogger(__name__).info(...)`` and inserts
    ``import logging`` after the last top-level import if missing.
    Multi-argument or formatted prints need a human decision about the
    message shape and are left as findings.

Everything else is out of scope on purpose: a fixer that guesses turns
a visible finding into an invisible behaviour change.  Fixes respect
the same ``[tool.simlint.scopes]`` configuration as the rules — a
``print`` in ``repro.report`` (where OBS002 is scoped out) is not
rewritten.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.lint import astutil
from repro.lint.config import LintConfig
from repro.lint.rules.det import _is_set_expr


@dataclass(frozen=True)
class AppliedFix:
    """One textual rewrite performed by a fixer."""

    rule: str
    relpath: str
    line: int  # 1-based
    description: str

    def render(self) -> str:
        return f"{self.relpath}:{self.line}: {self.rule} {self.description}"


@dataclass(frozen=True)
class _Edit:
    line: int  # 0-based
    start: int
    end: int
    replacement: str


def _single_line(node: ast.expr) -> bool:
    return node.end_lineno == node.lineno


def _det004_edits(
    tree: ast.Module, imports: dict[str, str]
) -> list[tuple[_Edit, str]]:
    out = []
    targets: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            targets.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            targets.extend(gen.iter for gen in node.generators)
    for expr in targets:
        if not _is_set_expr(expr, imports) or not _single_line(expr):
            continue
        out.append(
            (
                _Edit(expr.lineno - 1, expr.col_offset, expr.end_col_offset, ""),
                "wrapped set iteration in sorted()",
            )
        )
    return out


def _obs002_edits(
    tree: ast.Module, imports: dict[str, str]
) -> list[tuple[_Edit, str]]:
    out = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and astutil.is_builtin_call(node, "print", imports)
        ):
            continue
        if len(node.args) != 1 or node.keywords:
            continue  # message shape needs a human decision
        if isinstance(node.args[0], ast.Starred) or not _single_line(node):
            continue
        out.append(
            (
                _Edit(
                    node.func.lineno - 1,
                    node.func.col_offset,
                    node.func.end_col_offset,
                    "logging.getLogger(__name__).info",
                ),
                "rewrote print() to logging.getLogger(__name__).info()",
            )
        )
    return out


def _needs_logging_import(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Import):
            if any(alias.name == "logging" for alias in node.names):
                return False
    return True


def _logging_import_line(tree: ast.Module) -> int:
    """0-based line index to insert ``import logging`` at: after the
    last top-level import, else after the module docstring."""
    last_import = None
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            last_import = node
    if last_import is not None:
        return (last_import.end_lineno or last_import.lineno) - 1 + 1
    first = tree.body[0] if tree.body else None
    if (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        return (first.end_lineno or first.lineno) - 1 + 1
    return 0


def fix_source(
    source: str, relpath: str, config: Optional[LintConfig] = None
) -> tuple[str, list[AppliedFix]]:
    """Apply the autofixers to ``source``; returns (new_text, fixes).

    Returns the source unchanged when it does not parse — the lint
    engine reports the syntax error; a fixer must never touch a file it
    cannot fully understand.
    """
    config = config or LintConfig()
    try:
        tree = ast.parse(source, filename=relpath)
    except (SyntaxError, ValueError):
        return source, []
    imports = astutil.build_import_map(tree)

    def active(rule_id: str, family: str) -> bool:
        return config.rule_enabled(rule_id, family) and config.rule_applies(
            rule_id, family, relpath
        )

    planned: list[tuple[str, _Edit, str]] = []
    if active("DET004", "DET"):
        planned += [("DET004", e, d) for e, d in _det004_edits(tree, imports)]
    needs_import = False
    if active("OBS002", "OBSRES"):
        obs = _obs002_edits(tree, imports)
        if obs and _needs_logging_import(tree):
            needs_import = True
        planned += [("OBS002", e, d) for e, d in obs]
    if not planned:
        return source, []

    lines = source.splitlines(keepends=True)
    fixes: list[AppliedFix] = []
    # Apply right-to-left, bottom-to-top so earlier offsets stay valid.
    for rule, edit, description in sorted(
        planned, key=lambda p: (p[1].line, p[1].start), reverse=True
    ):
        text = lines[edit.line]
        eol = text[len(text.rstrip("\r\n")):]
        body = text.rstrip("\r\n")
        segment = body[edit.start:edit.end]
        if rule == "DET004":
            replacement = f"sorted({segment})"
        else:
            replacement = edit.replacement
        lines[edit.line] = body[:edit.start] + replacement + body[edit.end:] + eol
        fixes.append(AppliedFix(rule, relpath, edit.line + 1, description))
    if needs_import:
        at = _logging_import_line(tree)
        lines.insert(at, "import logging\n")
        fixes.append(
            AppliedFix("OBS002", relpath, at + 1, "inserted 'import logging'")
        )
    fixes.sort(key=lambda f: f.line)
    return "".join(lines), fixes


def fix_paths(
    paths: Iterable[Path], root: Path, config: Optional[LintConfig] = None
) -> list[AppliedFix]:
    """Fix every ``*.py`` under ``paths`` in place; returns the fixes."""
    from repro.lint.engine import _collect

    config = config or LintConfig()
    applied: list[AppliedFix] = []
    for path in sorted({p.resolve() for p in _collect(paths)}):
        try:
            relpath = path.relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue  # the lint pass reports unreadable files
        fixed, fixes = fix_source(source, relpath, config)
        if fixes:
            path.write_text(fixed, encoding="utf-8")
            applied.extend(fixes)
    return applied


__all__ = ["AppliedFix", "fix_paths", "fix_source"]
