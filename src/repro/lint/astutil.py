"""Shared AST helpers for simlint rules.

The engine parses each file once and hands rules a
:class:`~repro.lint.engine.FileContext`; everything here is pure
functions over that parsed tree.  The central primitive is
:func:`resolve_call_name`: mapping a call expression back to the dotted
name of what is actually being called, through ``import`` aliases
(``import numpy as np`` makes ``np.random.randint`` resolve to
``numpy.random.randint``).  Names that cannot be traced to an import or
a builtin resolve to ``None`` — rules treat unresolved calls as
innocent, which keeps false positives down at the cost of missing
violations routed through local variables.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional


def attach_parents(tree: ast.AST) -> None:
    """Annotate every node with a ``parent`` backlink (root gets None)."""
    tree.parent = None  # type: ignore[attr-defined]
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]


def parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "parent", None)


def build_import_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module/object they alias.

    ``import time`` → {"time": "time"}; ``import numpy as np`` →
    {"np": "numpy"}; ``from time import sleep as zzz`` →
    {"zzz": "time.sleep"}.  Star imports are ignored.
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never hide stdlib modules
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def dotted_name(node: ast.expr, imports: dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted name, or None.

    The chain's base must be an imported name; locals resolve to None.
    """
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = imports.get(node.id)
    if base is None:
        return None
    chain.append(base)
    return ".".join(reversed(chain))


def call_name(node: ast.Call, imports: dict[str, str]) -> Optional[str]:
    """Dotted name of the callee of ``node``, through import aliases."""
    return dotted_name(node.func, imports)


def is_builtin_call(node: ast.Call, name: str, imports: dict[str, str]) -> bool:
    """True when ``node`` calls the builtin ``name`` (not shadowed by an import)."""
    return (
        isinstance(node.func, ast.Name)
        and node.func.id == name
        and node.func.id not in imports
    )


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk ``func`` without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def is_generator(func: ast.FunctionDef) -> bool:
    """True when ``func`` itself contains a yield (nested defs excluded)."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own_nodes(func))


def functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def receiver_text(node: ast.expr) -> str:
    """Flatten a Name/Attribute receiver to dotted text ("self.env.tracer").

    Unlike :func:`dotted_name` this does not resolve imports — it is
    for heuristics on local naming conventions (anything ending in
    ``tracer`` is treated as a Tracer).
    """
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
    else:
        chain.append("?")
    return ".".join(reversed(chain))


def in_finally(node: ast.AST) -> bool:
    """True when ``node`` sits inside some ``finally:`` block."""
    cur = node
    par = parent(cur)
    while par is not None:
        if isinstance(par, ast.Try) and any(
            cur is stmt or _contains(stmt, cur) for stmt in par.finalbody
        ):
            return True
        cur, par = par, parent(par)
    return False


def _contains(root: ast.AST, target: ast.AST) -> bool:
    return any(n is target for n in ast.walk(root))


def in_with_item(node: ast.AST) -> bool:
    """True when ``node`` is a ``with`` statement's context expression."""
    par = parent(node)
    return isinstance(par, ast.withitem) and par.context_expr is node
