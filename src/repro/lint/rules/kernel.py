"""KERNEL — simkernel misuse rules.

The discrete-event kernel only works when process functions are real
generators that yield events, never block the interpreter, and return
leased resources on every path.  These rules catch the misuses that
otherwise surface as hangs, starved queues, or leaked capacity deep
into a run.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint import astutil
from repro.lint.findings import Finding
from repro.lint.rules import Rule, register


def _local_function_defs(tree: ast.Module) -> dict[str, Optional[ast.FunctionDef]]:
    """Name → def for functions defined in this module.

    A name defined more than once maps to None (ambiguous — skip it
    rather than guess).
    """
    defs: dict[str, Optional[ast.FunctionDef]] = {}
    for fn in astutil.functions(tree):
        defs[fn.name] = None if fn.name in defs else fn
    return defs


@register
class YieldlessProcessRule(Rule):
    id = "KER001"
    family = "KERNEL"
    summary = "process registered from a function that never yields"
    rationale = (
        "env.process() expects a generator.  A plain function runs to "
        "completion at registration time (or raises), consumes no "
        "simulated time, and its 'process' never appears in the event "
        "queue — a silent no-op that skews every downstream metric."
    )
    bad = "def work(env):\n    env.timeout(5)  # missing yield\nenv.process(work(env))"
    good = "def work(env):\n    yield env.timeout(5)\nenv.process(work(env))"

    def check(self, ctx) -> Iterator[Finding]:
        defs = _local_function_defs(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not (
                isinstance(node.func, ast.Attribute) and node.func.attr == "process"
            ):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if not (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)):
                continue
            target = defs.get(arg.func.id)
            if target is not None and not astutil.is_generator(target):
                yield self.finding(
                    ctx,
                    node,
                    f"process function {arg.func.id}() contains no yield; "
                    "it will run synchronously at registration and never "
                    "enter the event loop",
                )


@register
class BlockingSleepRule(Rule):
    id = "KER002"
    family = "KERNEL"
    summary = "blocking time.sleep in simulated code"
    rationale = (
        "time.sleep blocks the host interpreter, not the simulated "
        "clock: the event loop freezes and simulated time never "
        "advances.  Processes wait with `yield env.timeout(delay)`."
    )
    bad = "def work(env):\n    time.sleep(1)\n    yield env.timeout(1)"
    good = "def work(env):\n    yield env.timeout(1)"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if astutil.call_name(node, ctx.imports) == "time.sleep":
                    yield self.finding(
                        ctx,
                        node,
                        "time.sleep() blocks the interpreter, not the "
                        "simulated clock; use `yield env.timeout(delay)`",
                    )


@register
class NonEventYieldRule(Rule):
    id = "KER003"
    family = "KERNEL"
    summary = "yield of a literal in an event-yielding process"
    rationale = (
        "The kernel resumes a process by triggering the *event* it "
        "yielded.  Yielding a bare literal in a process that otherwise "
        "yields events is almost always a missing env.timeout(...) and "
        "the kernel will fail (or hang) when it tries to schedule it."
    )
    bad = "def work(env):\n    yield env.timeout(1)\n    yield 5  # not an event"
    good = "def work(env):\n    yield env.timeout(1)\n    yield env.timeout(5)"

    def check(self, ctx) -> Iterator[Finding]:
        for fn in astutil.functions(ctx.tree):
            yields = [
                n for n in astutil.own_nodes(fn) if isinstance(n, ast.Yield)
            ]
            if not yields:
                continue
            event_like = any(
                isinstance(y.value, (ast.Call, ast.Await)) for y in yields
            )
            if not event_like:
                continue  # a data generator, not a kernel process
            for y in yields:
                if y.value is None or isinstance(y.value, ast.Constant):
                    yield self.finding(
                        ctx,
                        y,
                        "yield of a non-event literal inside a kernel "
                        "process; every yield must produce an Event "
                        "(e.g. env.timeout(...))",
                    )


@register
class LeakedLeaseRule(Rule):
    id = "KER004"
    family = "KERNEL"
    summary = "resource request without a guaranteed release"
    rationale = (
        "A Resource slot claimed with .request() must be returned with "
        ".release() on every path — including failure paths — or "
        "capacity leaks and the simulation livelocks.  Use the request "
        "as a context manager or release in a try/finally."
    )
    bad = "req = gate.request()\nyield req\ndo_work()\ngate.release(req)"
    good = (
        "req = gate.request()\nyield req\ntry:\n    do_work()\n"
        "finally:\n    gate.release(req)"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for fn in astutil.functions(ctx.tree):
            requests = []
            releases = []
            for node in astutil.own_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr == "request":
                    requests.append(node)
                elif node.func.attr == "release":
                    releases.append(node)
            for req in requests:
                if astutil.in_with_item(req):
                    continue  # `with res.request() as r:` releases itself
                if not releases:
                    yield self.finding(
                        ctx,
                        req,
                        ".request() with no .release() anywhere in the "
                        "function; the slot leaks on completion",
                    )
                elif not any(astutil.in_finally(rel) for rel in releases):
                    yield self.finding(
                        ctx,
                        req,
                        ".request() released outside try/finally; an "
                        "exception between them leaks the slot — release "
                        "in a finally block or use `with`",
                    )


@register
class DirectHeapImportRule(Rule):
    id = "KER005"
    family = "KERNEL"
    summary = "direct heapq import inside the kernel"
    rationale = (
        "repro.simkernel.queueing owns the kernel's one sanctioned "
        "heapq import: the calendar queue's ordering guarantees "
        "(time -> priority -> creation order) live in its helpers, and "
        "a module that heap-pushes raw tuples on the side can reorder "
        "same-instant events and silently break golden-trace "
        "determinism.  Scoped to src/repro/simkernel/* — heapq stays "
        "fair game elsewhere in the tree."
    )
    bad = "import heapq\nheapq.heappush(queue, (t, seq, ev))"
    good = (
        "from repro.simkernel.queueing import heap_push\n"
        "heap_push(queue, (t, seq, ev))"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "heapq" or alias.name.startswith("heapq."):
                        yield self.finding(
                            ctx,
                            node,
                            "direct `import heapq` in the kernel; use the "
                            "ordering-preserving helpers in "
                            "repro.simkernel.queueing instead",
                        )
                        break
            elif isinstance(node, ast.ImportFrom):
                if node.module == "heapq" and node.level == 0:
                    yield self.finding(
                        ctx,
                        node,
                        "direct `from heapq import ...` in the kernel; use "
                        "the ordering-preserving helpers in "
                        "repro.simkernel.queueing instead",
                    )


def _is_fixed_timeout_yield(y: ast.Yield) -> bool:
    """``yield <expr>.timeout(<numeric literal>)``."""
    call = y.value
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
        return False
    if call.func.attr != "timeout" or not call.args:
        return False
    delay = call.args[0]
    return isinstance(delay, ast.Constant) and isinstance(
        delay.value, (int, float)
    )


@register
class FixedIntervalPollRule(Rule):
    id = "KER006"
    family = "KERNEL"
    summary = "fixed-interval polling loop in a kernel process"
    rationale = (
        "A `while True:` loop whose only yield is a constant "
        "env.timeout() re-checks state on a wall-clock grid: it burns "
        "kernel events while nothing changes, and reacts a fraction of "
        "the interval late when something does.  Schedulers and "
        "watchers should sleep on the event that signals the change "
        "(a wake event, a one-shot deadline timer) and be kicked by "
        "whoever changes the state.  A loop that *also* yields a "
        "condition event is event-driven with a timeout and is fine."
    )
    bad = (
        "while True:\n"
        "    yield env.timeout(5.0)  # poll grid\n"
        "    self._try_schedule()"
    )
    good = (
        "while True:\n"
        "    yield self._wake\n"
        "    self._wake = env.event()\n"
        "    self._try_schedule()"
    )

    def check(self, ctx) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            yields = [
                n
                for n in astutil.own_nodes(node)
                if isinstance(n, (ast.Yield, ast.YieldFrom))
            ]
            if not yields:
                continue
            if all(
                isinstance(y, ast.Yield) and _is_fixed_timeout_yield(y)
                for y in yields
            ):
                yield self.finding(
                    ctx,
                    node,
                    "while-True loop waits only on a fixed-interval "
                    "timeout (polling); wake on the event that changes "
                    "the polled state instead",
                )
