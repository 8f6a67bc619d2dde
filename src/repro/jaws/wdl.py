"""A from-scratch parser for a practical WDL subset.

Supported grammar (enough for the JGI-style workflows of §6)::

    version 1.0

    task NAME {
        input { TYPE name [= literal] ... }
        command <<< ...raw shell... >>>
        output { TYPE name = expr ... }
        runtime { key: expr ... }
    }

    workflow NAME {
        input { TYPE name [= literal] ... }
        call TASK [as ALIAS] [{ input: a = expr, b = expr }]
        scatter (x in expr) { <calls or nested scatters> }
        output { TYPE name = expr ... }
    }

Types: ``File String Int Float Boolean Array[T]``.  Expressions:
identifiers, dotted references (``call.output``), literals (a ``-``
directly before a digit is part of a numeric literal), arrays, and
calls ``range(n)`` / ``length(x)`` / ``sub(s, a, b)``.  A negative
literal ``cpu``, ``memory`` or ``runtime_minutes`` is a parse error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional


class WdlParseError(ValueError):
    """Syntax or structural error in a WDL document."""


# -- AST ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WdlType:
    name: str
    item: Optional["WdlType"] = None  # for Array[T]

    def __str__(self) -> str:
        return f"{self.name}[{self.item}]" if self.item else self.name


@dataclass(frozen=True)
class Declaration:
    """``TYPE name [= expr]`` in an input/output block."""

    type: WdlType
    name: str
    expr: Any = None  # parsed expression or None


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Attr:
    base: Any
    attr: str


@dataclass(frozen=True)
class Literal:
    value: Any


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: tuple


@dataclass(frozen=True)
class ArrayLit:
    items: tuple


@dataclass
class WdlTask:
    name: str
    inputs: list = field(default_factory=list)
    command: str = ""
    outputs: list = field(default_factory=list)
    runtime: dict = field(default_factory=dict)

    def runtime_value(self, key: str, default=None):
        expr = self.runtime.get(key)
        if expr is None:
            return default
        if isinstance(expr, Literal):
            return expr.value
        return expr


@dataclass
class WdlCall:
    task_name: str
    alias: Optional[str] = None
    inputs: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.alias or self.task_name


@dataclass
class WdlScatter:
    variable: str
    collection: Any
    body: list = field(default_factory=list)


@dataclass
class WdlWorkflow:
    name: str
    inputs: list = field(default_factory=list)
    body: list = field(default_factory=list)  # WdlCall | WdlScatter
    outputs: list = field(default_factory=list)

    def calls(self) -> list:
        """All calls, including inside scatters, in document order."""
        found = []

        def walk(items):
            for item in items:
                if isinstance(item, WdlCall):
                    found.append(item)
                else:
                    walk(item.body)

        walk(self.body)
        return found


@dataclass
class WdlDocument:
    version: str
    tasks: dict = field(default_factory=dict)
    workflow: Optional[WdlWorkflow] = None

    def validate(self) -> None:
        """Check structural invariants beyond syntax."""
        if self.workflow is None:
            raise WdlParseError("Document has no workflow block")
        names = set()
        for call in self.workflow.calls():
            if call.task_name not in self.tasks:
                raise WdlParseError(
                    f"call references unknown task {call.task_name!r}"
                )
            if call.name in names:
                raise WdlParseError(
                    f"duplicate call name {call.name!r}; use 'as' aliases"
                )
            names.add(call.name)


# -- tokenizer ------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<command><<<.*?>>>)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<float>-?\d+\.\d+)
  | (?P<int>-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}()\[\]=:,.])
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            line = text.count("\n", 0, pos) + 1
            raise WdlParseError(f"Unexpected character {text[pos]!r} at line {line}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group()))
    tokens.append(("eof", ""))
    return tokens


# -- parser ------------------------------------------------------------------------------

#: Runtime keys the engine turns into a core count, a memory size and a
#: delay, none of which may be negative.
_NON_NEGATIVE_RUNTIME = frozenset({"cpu", "memory", "runtime_minutes"})


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.i = 0

    # token helpers ------------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.i]

    def next(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise WdlParseError(
                f"Expected {value or kind!r}, got {v!r} (token {self.i - 1})"
            )
        return v

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[str]:
        k, v = self.peek()
        if k == kind and (value is None or v == value):
            self.i += 1
            return v
        return None

    # document ------------------------------------------------------------

    def parse_document(self) -> WdlDocument:
        version = "1.0"
        if self.accept("ident", "version"):
            k, v = self.next()
            version = v
        doc = WdlDocument(version=version)
        while self.peek()[0] != "eof":
            kw = self.expect("ident")
            if kw == "task":
                task = self.parse_task()
                if task.name in doc.tasks:
                    raise WdlParseError(f"duplicate task {task.name!r}")
                doc.tasks[task.name] = task
            elif kw == "workflow":
                if doc.workflow is not None:
                    raise WdlParseError("multiple workflow blocks")
                doc.workflow = self.parse_workflow()
            else:
                raise WdlParseError(f"Expected 'task' or 'workflow', got {kw!r}")
        return doc

    # task ------------------------------------------------------------------

    def parse_task(self) -> WdlTask:
        name = self.expect("ident")
        task = WdlTask(name=name)
        self.expect("punct", "{")
        while not self.accept("punct", "}"):
            section = self.expect("ident")
            if section == "input":
                task.inputs = self.parse_declarations()
            elif section == "command":
                k, v = self.next()
                if k != "command":
                    raise WdlParseError("command must be a <<< ... >>> block")
                task.command = v[3:-3].strip()
            elif section == "output":
                task.outputs = self.parse_declarations(require_expr=True)
            elif section == "runtime":
                task.runtime = self.parse_runtime(name)
            else:
                raise WdlParseError(f"Unknown task section {section!r}")
        return task

    def parse_declarations(self, require_expr: bool = False) -> list:
        self.expect("punct", "{")
        decls = []
        while not self.accept("punct", "}"):
            typ = self.parse_type()
            name = self.expect("ident")
            expr = None
            if self.accept("punct", "="):
                expr = self.parse_expr()
            elif require_expr:
                raise WdlParseError(f"output {name!r} needs '= expr'")
            decls.append(Declaration(type=typ, name=name, expr=expr))
            self.accept("punct", ",")  # commas between decls are optional
        return decls

    def parse_type(self) -> WdlType:
        base = self.expect("ident")
        if base not in ("File", "String", "Int", "Float", "Boolean", "Array"):
            raise WdlParseError(f"Unknown type {base!r}")
        if base == "Array":
            self.expect("punct", "[")
            item = self.parse_type()
            self.expect("punct", "]")
            return WdlType("Array", item)
        return WdlType(base)

    def parse_runtime(self, task_name: str) -> dict:
        self.expect("punct", "{")
        entries = {}
        while not self.accept("punct", "}"):
            key = self.expect("ident")
            self.expect("punct", ":")
            expr = entries[key] = self.parse_expr()
            if (
                key in _NON_NEGATIVE_RUNTIME
                and isinstance(expr, Literal)
                and type(expr.value) in (int, float)
                and expr.value < 0
            ):
                raise WdlParseError(
                    f"task {task_name!r}: runtime {key} must not be "
                    f"negative, got {expr.value!r}"
                )
            self.accept("punct", ",")  # commas between entries are optional
        return entries

    # workflow ---------------------------------------------------------------

    def parse_workflow(self) -> WdlWorkflow:
        name = self.expect("ident")
        wf = WdlWorkflow(name=name)
        self.expect("punct", "{")
        while not self.accept("punct", "}"):
            kw = self.expect("ident")
            if kw == "input":
                wf.inputs = self.parse_declarations()
            elif kw == "output":
                wf.outputs = self.parse_declarations(require_expr=True)
            elif kw == "call":
                wf.body.append(self.parse_call())
            elif kw == "scatter":
                wf.body.append(self.parse_scatter())
            else:
                raise WdlParseError(f"Unknown workflow element {kw!r}")
        return wf

    def parse_call(self) -> WdlCall:
        task_name = self.expect("ident")
        alias = None
        if self.accept("ident", "as"):
            alias = self.expect("ident")
        call = WdlCall(task_name=task_name, alias=alias)
        if self.accept("punct", "{"):
            self.expect("ident", "input")
            self.expect("punct", ":")
            while not self.accept("punct", "}"):
                pname = self.expect("ident")
                self.expect("punct", "=")
                call.inputs[pname] = self.parse_expr()
                self.accept("punct", ",")
        return call

    def parse_scatter(self) -> WdlScatter:
        self.expect("punct", "(")
        var = self.expect("ident")
        self.expect("ident", "in")
        collection = self.parse_expr()
        self.expect("punct", ")")
        self.expect("punct", "{")
        body = []
        while not self.accept("punct", "}"):
            kw = self.expect("ident")
            if kw == "call":
                body.append(self.parse_call())
            elif kw == "scatter":
                body.append(self.parse_scatter())
            else:
                raise WdlParseError(f"Unknown scatter element {kw!r}")
        return WdlScatter(variable=var, collection=collection, body=body)

    # expressions ---------------------------------------------------------------

    def parse_expr(self) -> Any:
        kind, value = self.peek()
        if kind == "string":
            self.next()
            return Literal(value[1:-1].replace('\\"', '"'))
        if kind == "int":
            self.next()
            return Literal(int(value))
        if kind == "float":
            self.next()
            return Literal(float(value))
        if kind == "punct" and value == "[":
            self.next()
            items = []
            while not self.accept("punct", "]"):
                items.append(self.parse_expr())
                self.accept("punct", ",")
            return ArrayLit(tuple(items))
        if kind == "ident":
            self.next()
            if value in ("true", "false"):
                return Literal(value == "true")
            # function call?
            if self.accept("punct", "("):
                args = []
                while not self.accept("punct", ")"):
                    args.append(self.parse_expr())
                    self.accept("punct", ",")
                return FuncCall(value, tuple(args))
            expr: Any = Ident(value)
            while self.accept("punct", "."):
                expr = Attr(expr, self.expect("ident"))
            return expr
        raise WdlParseError(f"Cannot parse expression at {value!r}")


def parse_wdl(text: str) -> WdlDocument:
    """Parse WDL source text into a validated :class:`WdlDocument`."""
    doc = _Parser(_tokenize(text)).parse_document()
    doc.validate()
    return doc


# -- rendering (AST -> source) ---------------------------------------------------


def _render_expr(expr: Any) -> str:
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        if isinstance(expr.value, str):
            return '"' + expr.value.replace('"', '\\"') + '"'
        return repr(expr.value)
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Attr):
        return f"{_render_expr(expr.base)}.{expr.attr}"
    if isinstance(expr, FuncCall):
        return f"{expr.name}({', '.join(_render_expr(a) for a in expr.args)})"
    if isinstance(expr, ArrayLit):
        return "[" + ", ".join(_render_expr(i) for i in expr.items) + "]"
    raise WdlParseError(f"Cannot render expression {expr!r}")


def _render_decls(decls: list, indent: str) -> list:
    lines = []
    for d in decls:
        suffix = f" = {_render_expr(d.expr)}" if d.expr is not None else ""
        lines.append(f"{indent}{d.type} {d.name}{suffix}")
    return lines


def _render_call(call: WdlCall, indent: str) -> list:
    head = f"{indent}call {call.task_name}"
    if call.alias:
        head += f" as {call.alias}"
    if not call.inputs:
        return [head]
    lines = [head + " { input:"]
    for pname, expr in call.inputs.items():
        lines.append(f"{indent}    {pname} = {_render_expr(expr)},")
    lines.append(indent + "}")
    return lines


def _render_body(body: list, indent: str) -> list:
    lines = []
    for item in body:
        if isinstance(item, WdlCall):
            lines += _render_call(item, indent)
        else:
            lines.append(
                f"{indent}scatter ({item.variable} in "
                f"{_render_expr(item.collection)}) {{"
            )
            lines += _render_body(item.body, indent + "    ")
            lines.append(indent + "}")
    return lines


def render_wdl(document: WdlDocument) -> str:
    """Render a document back to WDL source (``parse_wdl``-compatible).

    Useful for exporting transformed workflows (e.g. after
    :func:`repro.jaws.migration.fuse_linear_chains`) as files a real
    Cromwell could consume.  Round-trips: parsing the rendered text
    reproduces the same AST.
    """
    lines = [f"version {document.version}", ""]
    for task in document.tasks.values():
        lines.append(f"task {task.name} {{")
        if task.inputs:
            lines.append("    input {")
            lines += _render_decls(task.inputs, "        ")
            lines.append("    }")
        lines.append("    command <<<")
        lines.append(task.command)
        lines.append("    >>>")
        if task.outputs:
            lines.append("    output {")
            lines += _render_decls(task.outputs, "        ")
            lines.append("    }")
        if task.runtime:
            lines.append("    runtime {")
            for key, expr in task.runtime.items():
                lines.append(f"        {key}: {_render_expr(expr)}")
            lines.append("    }")
        lines.append("}")
        lines.append("")
    wf = document.workflow
    if wf is not None:
        lines.append(f"workflow {wf.name} {{")
        if wf.inputs:
            lines.append("    input {")
            lines += _render_decls(wf.inputs, "        ")
            lines.append("    }")
        lines += _render_body(wf.body, "    ")
        if wf.outputs:
            lines.append("    output {")
            lines += _render_decls(wf.outputs, "        ")
            lines.append("    }")
        lines.append("}")
    return "\n".join(lines) + "\n"
