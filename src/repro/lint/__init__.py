"""simlint — determinism & sim-correctness static analysis.

An AST-based lint pass over the reproduction's own contracts: no wall
clocks or unseeded randomness in simulated code (DET), kernel processes
that actually yield events and return their leases (KERNEL), spans that
close and retries that go through RetryPolicy (OBS/RES).  Run it as::

    python -m repro.lint [paths…] [--format human|json|sarif]

Configuration (default paths, rule scoping, entry-point globs) lives in
``[tool.simlint]`` in pyproject.toml; an unknown key there is a
:class:`~repro.lint.config.ConfigError`.  The only way to silence a
finding is an inline suppression with a written reason:
``# simlint: disable=DET003 -- <required justification>``.  See
docs/LINTING.md for the rule catalog.
"""

from repro.lint.config import LintConfig, find_project_root, load_config
from repro.lint.engine import FileContext, LintResult, lint_paths, lint_source
from repro.lint.findings import Finding
from repro.lint.rules import REGISTRY, Rule, all_rules, register

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "LintResult",
    "REGISTRY",
    "Rule",
    "all_rules",
    "find_project_root",
    "lint_paths",
    "lint_source",
    "load_config",
    "register",
]
