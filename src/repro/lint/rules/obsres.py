"""OBS/RES — observability and resilience contract rules.

The obs layer's guarantees (span trees that tile the run, metrics that
match live monitors) and the resilience layer's guarantees (every retry
goes through RetryPolicy, every failure gets classified) only hold if
nobody routes around them.  These rules catch the common bypasses.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint import astutil
from repro.lint.findings import Finding
from repro.lint.rules import Rule, register


def _is_tracer_receiver(node: ast.expr) -> bool:
    """Heuristic: the receiver names a tracer (tracer, env.tracer, ...)."""
    text = astutil.receiver_text(node)
    return text.split(".")[-1].endswith("tracer") or text.endswith("tracer")


@register
class UnclosedSpanRule(Rule):
    id = "OBS001"
    family = "OBSRES"
    summary = "span started without a guaranteed finish"
    rationale = (
        "tracer.start() spans that are never finished have no end time: "
        "critical-path extraction, phase tiling, and the Fig-4 overhead "
        "decomposition all silently miscount.  Use `with tracer.span(...)` "
        "for synchronous sections or guarantee .finish() for "
        "cross-process spans."
    )
    bad = "span = tracer.start('bind')\ndo_work()  # span never finished"
    good = "span = tracer.start('bind')\ntry:\n    do_work()\nfinally:\n    span.finish()"

    def check(self, ctx) -> Iterator[Finding]:
        for fn in astutil.functions(ctx.tree):
            has_finish = any(
                isinstance(n, ast.Attribute) and n.attr == "finish"
                for n in ast.walk(fn)
            )
            for node in astutil.own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                if not (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"start", "span"}
                    and _is_tracer_receiver(node.func.value)
                ):
                    continue
                par = astutil.parent(node)
                if node.func.attr == "span":
                    # tracer.span() is a context manager; anything other
                    # than `with tracer.span(...)` discards the interval.
                    if isinstance(par, ast.Expr):
                        yield self.finding(
                            ctx,
                            node,
                            "tracer.span(...) discarded; use "
                            "`with tracer.span(...) as s:`",
                        )
                    continue
                if isinstance(par, ast.Expr):
                    yield self.finding(
                        ctx,
                        node,
                        "tracer.start(...) result discarded; the span can "
                        "never be finished",
                    )
                elif isinstance(par, ast.Assign) and not has_finish:
                    names = [
                        t.id for t in par.targets if isinstance(t, ast.Name)
                    ]
                    if not names:
                        continue
                    span_var = names[0]
                    if self._escapes(fn, par, span_var):
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        f"span {span_var!r} is started but no .finish() "
                        "appears in this function and the span does not "
                        "escape; the interval never closes",
                    )

    @staticmethod
    def _escapes(fn: ast.AST, assign: ast.Assign, name: str) -> bool:
        """Span handed to a callee, returned, or stored on an object."""
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Name) and sub.id == name:
                            return True
            elif isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
            elif isinstance(node, ast.Assign) and node is not assign:
                for tgt in node.targets:
                    if isinstance(tgt, ast.Attribute):
                        for sub in ast.walk(node.value):
                            if isinstance(sub, ast.Name) and sub.id == name:
                                return True
        return False


@register
class PrintInLibraryRule(Rule):
    id = "OBS002"
    family = "OBSRES"
    summary = "print() in library code"
    rationale = (
        "Library output belongs in obs instruments (spans, metrics, "
        "alerts) or a reporter, where it is attributable and testable.  "
        "print() bypasses both; stdout is the product only for the "
        "repro.report / repro.viz CLI surfaces (scoped out in "
        "pyproject.toml)."
    )
    bad = "print(f'scheduled {job}')"
    good = "tracer.instant('scheduled', tags={'job': job.name})"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and astutil.is_builtin_call(
                node, "print", ctx.imports
            ):
                yield self.finding(
                    ctx,
                    node,
                    "print() in library code; record via obs instruments "
                    "or a reporter",
                )


@register
class DirectSpanAccessRule(Rule):
    id = "OBS003"
    family = "OBSRES"
    summary = "direct tracer.spans access outside repro.obs"
    rationale = (
        "tracer.spans is the in-memory sink's retained list; touching it "
        "directly couples callers to one sink and raises at runtime on "
        "constant-memory runs (spill sinks retain nothing).  "
        "Go through tracer.query() / repro.obs.stream so the same code "
        "works under every sink.  Scoped to src/repro/* with repro.obs "
        "itself excluded (pyproject [tool.simlint.scopes])."
    )
    bad = "n_failed = sum(1 for s in tracer.spans if s.tags.get('state') == 'FAILED')"
    good = "n_failed = len(tracer.query().spans(tags={'state': 'FAILED'}))"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "spans"
                and _is_tracer_receiver(node.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "direct tracer.spans access is sink-specific (raises "
                    "under spill sinks); use tracer.query() or "
                    "the repro.obs.stream APIs",
                )


@register
class SwallowedExceptRule(Rule):
    id = "RES001"
    family = "OBSRES"
    summary = "bare or swallowing except handler"
    rationale = (
        "A bare `except:` (or `except Exception: pass`) eats the "
        "failure before classify_failure() can see it, so TransferError "
        "transience, walltime kills, and node deaths all degrade to "
        "silent success.  Catch the narrowest type and route the cause "
        "through repro.resilience.classify_failure."
    )
    bad = "try:\n    transfer()\nexcept Exception:\n    pass"
    good = (
        "try:\n    transfer()\nexcept TransferError as exc:\n"
        "    if not policy.should_retry(attempts, exc):\n        raise"
    )

    _BROAD = {"Exception", "BaseException"}

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except: catches everything including "
                    "KeyboardInterrupt; name the exception type",
                )
                continue
            broad = (
                isinstance(node.type, ast.Name) and node.type.id in self._BROAD
            )
            trivial = all(
                isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body
            )
            if broad and trivial:
                yield self.finding(
                    ctx,
                    node,
                    "broad except handler swallows the failure without "
                    "classification; catch a narrow type or route through "
                    "classify_failure()",
                )


#: Identifier tokens that mark a variable as a retry counter.  Matched
#: against underscore/digit-split tokens so "entries" does not match
#: "tries" but "max_retries" and "attempt2" do.
_RETRY_TOKENS = {"attempt", "attempts", "retry", "retries", "tries", "backoff"}
_TOKEN_SPLIT = re.compile(r"[_\d]+")


def _is_retry_name(name: str) -> bool:
    return any(tok in _RETRY_TOKENS for tok in _TOKEN_SPLIT.split(name.lower()))


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


@register
class HandRolledRetryRule(Rule):
    id = "RES002"
    family = "OBSRES"
    summary = "hand-rolled retry loop bypassing RetryPolicy"
    rationale = (
        "Ad-hoc while/for retry loops reintroduce the four divergent "
        "retry behaviours PR 4 unified: no failure classification, no "
        "deterministic backoff jitter, no attempt budget shared with "
        "the quarantine logic.  Drive retries through "
        "repro.resilience.RetryPolicy."
    )
    bad = (
        "attempt = 0\nwhile attempt < 3:\n    try:\n        submit(task)\n"
        "        break\n    except Exception:\n        attempt += 1"
    )
    good = (
        "policy = RetryPolicy(max_retries=3)\n"
        "while not submit(task):\n"
        "    if not policy.should_retry(task.attempts, task.cause):\n"
        "        break\n"
        "    yield env.timeout(policy.backoff_s(task.attempts, key=task.name))"
    )

    #: The RetryPolicy methods whose call marks a loop as policy-driven.
    _POLICY_API = {"should_retry", "backoff_s"}

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.While, ast.For)):
                continue
            tries = [
                n for n in astutil.own_nodes(node) if isinstance(n, ast.Try)
            ]
            if not tries:
                continue
            # Policy-driven loops are the sanctioned pattern, not a bypass.
            policy_driven = any(
                (isinstance(n, ast.Attribute) and n.attr in self._POLICY_API)
                or (isinstance(n, ast.Name) and n.id == "RetryPolicy")
                for n in ast.walk(node)
            )
            if policy_driven:
                continue
            header = node.test if isinstance(node, ast.While) else node.iter
            counter_in_header = any(
                _is_retry_name(name) for name in _names_in(header)
            )
            counter_in_body = any(
                isinstance(n, ast.AugAssign)
                and any(_is_retry_name(nm) for nm in _names_in(n.target))
                for t in tries
                for n in ast.walk(t)
            )
            # `continue` in an except handler re-runs the loop body after
            # a failure.  In a `while` that is a retry; in a `for` it is
            # skip-to-next-item, which is not.
            retry_continue = isinstance(node, ast.While) and any(
                isinstance(n, ast.Continue)
                for t in tries
                for handler in t.handlers
                for stmt in handler.body
                for n in ast.walk(stmt)
            )
            if counter_in_header or counter_in_body or retry_continue:
                yield self.finding(
                    ctx,
                    node,
                    "hand-rolled retry loop (try/except with an attempt "
                    "counter); use repro.resilience.RetryPolicy so "
                    "failures are classified and backoff stays "
                    "deterministic",
                )
