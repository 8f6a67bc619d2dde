"""Rule base class and registry.

Every rule is a subclass of :class:`Rule` decorated with
:func:`register`.  A rule declares its id (``<FAMILY><NNN>``), a
one-line summary, a rationale (``--list-rules`` prints the id,
summary and rationale), bad/good example snippets for the reader of
the rule, plus a ``check(ctx)`` generator yielding
:class:`~repro.lint.findings.Finding`.

Importing this package imports the rule modules, so the registry is
always fully populated after ``from repro.lint import rules``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Type

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover
    from repro.lint.engine import FileContext, ProgramContext


class Rule:
    """One static check.  Subclasses set the class attributes below."""

    id: str = ""
    family: str = ""  # "DET" | "KERNEL" | "OBSRES" | "SUP"
    summary: str = ""
    rationale: str = ""
    bad: str = ""  # minimal firing example
    good: str = ""  # minimal non-firing counterpart

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: "FileContext", node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            path=ctx.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            source_line=ctx.line(line),
        )


class ProgramRule(Rule):
    """A whole-program rule: sees every parsed file of the run at once.

    Program rules run in a second pass after the per-file rules, against
    a :class:`~repro.lint.engine.ProgramContext` (all parsed files plus
    the lazily-built :class:`~repro.lint.callgraph.ProgramGraph`).
    Their findings carry whatever path they anchor to, so per-file
    scoping and inline suppressions still apply — the engine filters by
    ``finding.path``, not by the file that triggered the rule.
    """

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        return iter(())  # program rules only run in the program pass

    def check_program(self, program: "ProgramContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding_in(
        self, program: "ProgramContext", relpath: str, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            path=relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            source_line=program.line(relpath, line),
        )


REGISTRY: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.id or not cls.family:
        raise ValueError(f"rule {cls.__name__} must set id and family")
    if cls.id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    return [REGISTRY[rid] for rid in sorted(REGISTRY)]


def known_ids() -> set[str]:
    return set(REGISTRY)


# Populate the registry.
from repro.lint.rules import det as _det  # noqa: E402,F401
from repro.lint.rules import kernel as _kernel  # noqa: E402,F401
from repro.lint.rules import obsres as _obsres  # noqa: E402,F401
from repro.lint.rules import race as _race  # noqa: E402,F401
