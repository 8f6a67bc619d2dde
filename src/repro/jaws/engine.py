"""A Cromwell-like execution engine for parsed WDL documents.

Executes a :class:`~repro.jaws.wdl.WdlDocument` against the simulated
batch substrate with the features §6 leans on:

- **dataflow scheduling** — independent calls run concurrently; a call
  waits only for the calls whose outputs it references,
- **scatter** — one shard per collection element, with an optional
  concurrency cap (the fair-share guard of §6.2),
- **call caching** — "detect when an identical task has been run in
  the past and avoid re-computing the results": results are keyed by
  (task, container digest, evaluated inputs),
- **per-shard overhead** — container start + file staging costs paid by
  every task execution; this is what task fusion (E7) eliminates.

Each call (or scatter shard) runs as a small ``_Call`` handle driven by
callbacks on kernel events that exist anyway: an URGENT start event,
the upstream calls' output events, the scatter gate's grant and the
batch job's completion.  There is no generator process per call, so a
5,000-call scatter starts a handful of processes (the run, each
scatter, each gathered array), not 5,000.  The handle takes the
process's dispatch slots: its start where the process's ``Initialize``
was, each later step where the process would have resumed.  Only the
process-end events are gone, and the run and each scatter wait on the
calls' output events instead.  Expressions are still evaluated by the
``_eval`` generator; a handle runs it to completion without simulated
time, or up to the first upstream output event it would wait on.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.jaws.wdl import (
    ArrayLit,
    Attr,
    FuncCall,
    Ident,
    Literal,
    WdlCall,
    WdlDocument,
    WdlParseError,
    WdlScatter,
    WdlTask,
)
from repro.rm.base import Job, JobState, ResourceRequest
from repro.rm.batch import BatchScheduler
from repro.simkernel import Environment, Event, Resource
from repro.simkernel.events import URGENT


class WdlRuntimeError(RuntimeError):
    """Evaluation failure (missing input, task failure, bad expr...)."""


@dataclass(frozen=True)
class EngineOptions:
    """Cost model and policy knobs."""

    container_start_s: float = 5.0
    #: Per-execution file staging / shard bookkeeping overhead — the
    #: "strain on the filesystem" §6.1 says fusion reduces.
    stage_overhead_s: float = 8.0
    default_task_runtime_s: float = 60.0
    default_walltime_s: float = 4 * 3600.0
    #: Cap on concurrently running scatter shards (None = unbounded,
    #: the §6.2 anti-pattern).
    max_scatter_concurrency: Optional[int] = None
    call_caching: bool = True

    def __post_init__(self):
        if self.container_start_s < 0 or self.stage_overhead_s < 0:
            raise ValueError("overheads must be non-negative")
        if self.max_scatter_concurrency is not None and self.max_scatter_concurrency < 1:
            raise ValueError("max_scatter_concurrency must be >= 1")


@dataclass
class CallRecord:
    """One task execution (or cache hit)."""

    call_name: str
    task_name: str
    shard: Optional[int] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    cached: bool = False
    cores: int = 1

    @property
    def runtime(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time


@dataclass
class WdlRunResult:
    workflow_name: str
    records: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    t_start: float = 0.0
    t_end: Optional[float] = None
    succeeded: bool = False
    error: Optional[str] = None
    done: Any = None

    @property
    def makespan(self) -> Optional[float]:
        if self.t_end is None:
            return None
        return self.t_end - self.t_start

    @property
    def shard_count(self) -> int:
        """Number of actual task executions (cache hits excluded)."""
        return sum(1 for r in self.records if not r.cached)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)


def parse_memory_gb(value: Any, default: float = 2.0) -> float:
    """Parse a WDL runtime memory string like ``"8 GB"`` / ``"512 MB"``."""
    if value is None:
        return default
    if isinstance(value, (int, float)):
        return float(value)
    m = re.match(r"\s*([\d.]+)\s*([GMK]i?B?)?\s*$", str(value), re.IGNORECASE)
    if not m:
        raise WdlRuntimeError(f"Cannot parse memory {value!r}")
    qty = float(m.group(1))
    unit = (m.group(2) or "GB").upper()
    if unit.startswith("G"):
        return qty
    if unit.startswith("M"):
        return qty / 1000.0
    if unit.startswith("K"):
        return qty / 1e6
    return qty


class CromwellEngine:
    """Executes WDL documents on a batch scheduler."""

    def __init__(
        self,
        env: Environment,
        batch: BatchScheduler,
        options: Optional[EngineOptions] = None,
    ):
        self.env = env
        self.batch = batch
        self.options = options or EngineOptions()
        #: Cross-run call cache: key -> outputs dict.
        self._cache: dict = {}
        #: Per-task cost-model cache (docker, cores, duration, total,
        #: request, has_file_output, task).  A 10k-shard scatter
        #: re-reads the same task's runtime section 10k times; the
        #: values are static per document, so resolve them once.
        self._task_info: dict[int, tuple] = {}
        #: The options object the cache was derived from; operators may
        #: swap ``engine.options`` (e.g. raise the walltime and
        #: resubmit), which invalidates every cached request.
        self._task_info_opts = self.options

    def run(self, document: WdlDocument, inputs: Optional[dict] = None) -> WdlRunResult:
        """Start executing; drive the simulation to completion via
        ``env.run(until=result.done)``."""
        document.validate()
        wf = document.workflow
        result = WdlRunResult(workflow_name=wf.name, t_start=self.env.now)
        result.done = self.env.event()
        self.env.process(
            self._execute(document, dict(inputs or {}), result),
            name=f"cromwell:{wf.name}",
        )
        return result

    # -- execution ----------------------------------------------------------------

    def _execute(self, document: WdlDocument, inputs: dict, result: WdlRunResult):
        wf = document.workflow
        try:
            scope: dict = {}
            for decl in wf.inputs:
                if decl.name in inputs:
                    scope[decl.name] = inputs[decl.name]
                elif decl.expr is not None:
                    scope[decl.name] = yield from self._eval(decl.expr, scope, {})
                else:
                    raise WdlRuntimeError(
                        f"Missing required workflow input {decl.name!r}"
                    )
            call_events: dict = {}
            scatter_gate = (
                Resource(self.env, self.options.max_scatter_concurrency)
                if self.options.max_scatter_concurrency
                else None
            )
            waits = self._launch_body(
                document, wf.body, scope, call_events, result, scatter_gate
            )
            if waits:
                yield self.env.all_of(waits)
            # Workflow outputs.
            for decl in wf.outputs:
                result.outputs[decl.name] = yield from self._eval(
                    decl.expr, scope, call_events
                )
            result.succeeded = True
        except (WdlRuntimeError, WdlParseError) as exc:
            result.succeeded = False
            result.error = str(exc)
        finally:
            result.t_end = self.env.now
            result.done.succeed(result)

    def _launch_body(self, document, body, scope, call_events, result, scatter_gate):
        """Start every item of ``body``; returns the events that mark
        each one done (a call's output event, a scatter's process)."""
        waits = []
        for item in body:
            if isinstance(item, WdlCall):
                ev = self.env.event()
                call_events[item.name] = ev
                _Call(self, document, item, dict(scope), call_events, result,
                      ev, shard=None, gate=None)
                waits.append(ev)
            elif isinstance(item, WdlScatter):
                # A scatter's calls publish arrays keyed by call name.
                waits.append(
                    self.env.process(
                        self._run_scatter(
                            document, item, dict(scope), call_events, result,
                            scatter_gate,
                        ),
                        name=f"scatter:{item.variable}",
                    )
                )
            else:  # pragma: no cover - parser only produces the above
                raise WdlRuntimeError(f"Unknown body item {item!r}")
        return waits

    def _run_scatter(self, document, scatter, scope, call_events, result, gate):
        collection = yield from self._eval(
            scatter.collection, scope, call_events
        )
        if not isinstance(collection, (list, tuple)):
            raise WdlRuntimeError(
                f"scatter needs an array, got {type(collection).__name__}"
            )
        # Pre-create one event per inner call, carrying per-shard lists.
        inner_calls = [c for c in scatter.body if isinstance(c, WdlCall)]
        if len(inner_calls) != len(scatter.body):
            # The parser accepts nested scatters; the engine does not
            # execute them yet.  Fail loudly rather than silently
            # dropping work.
            raise WdlRuntimeError(
                "nested scatters are parsed but not executable; flatten "
                "the inner scatter or precompute its product as an array"
            )
        if self.env.tracer.enabled:
            self.env.tracer.instant(
                "scatter",
                category="jaws.scatter",
                component="cromwell",
                tags={"variable": scatter.variable, "shards": len(collection)},
            )
        shard_events: dict = {c.name: [] for c in inner_calls}
        waits = []
        for idx, value in enumerate(collection):
            shard_scope = dict(scope)
            shard_scope[scatter.variable] = value
            shard_call_events = dict(call_events)
            for call in inner_calls:
                ev = self.env.event()
                shard_events[call.name].append(ev)
                shard_call_events[call.name] = ev
                _Call(self, document, call, shard_scope, shard_call_events,
                      result, ev, shard=idx, gate=gate)
                waits.append(ev)
        # Publish array-valued results for references after the scatter.
        for call in inner_calls:
            agg = self.env.event()
            call_events[call.name] = agg
            self.env.process(
                self._aggregate(shard_events[call.name], agg),
                name=f"gather:{call.name}",
            )
        if waits:
            yield self.env.all_of(waits)

    def _aggregate(self, events: list, target):
        if events:
            try:
                yield self.env.all_of(events)
            except Exception as exc:
                # A failed shard fails the gathered array too; the
                # scatter's own wait reports the failure to the run.
                target.fail(exc)
                target.defused = True
                return
            values = [e.value for e in events]
        else:
            values = []
            yield self.env.timeout(0)
        # Merge per-shard namespaces into arrays per output key.
        merged: dict = {}
        for ns in values:
            for k, v in ns.items():
                merged.setdefault(k, []).append(v)
        target.succeed(merged)

    def _task_cost(self, task: WdlTask) -> tuple:
        """``(docker, cores, duration, total, request, has_file_output,
        task)``.

        The task's cost model is a pure function of its runtime{}
        section — static per document — so a 10k-shard scatter resolves
        it once, not 10k times.  The shared frozen ResourceRequest is
        safe: schedulers only read it.
        """
        if self._task_info_opts is not self.options:
            self._task_info.clear()
            self._task_info_opts = self.options
        info = self._task_info.get(id(task))
        if info is None:
            docker = str(task.runtime_value("docker", "ubuntu:latest"))
            cores = int(task.runtime_value("cpu", 1))
            memory = parse_memory_gb(task.runtime_value("memory"))
            minutes = task.runtime_value("runtime_minutes")
            duration = (
                float(minutes) * 60.0
                if minutes is not None
                else self.options.default_task_runtime_s
            )
            total = (
                self.options.container_start_s
                + self.options.stage_overhead_s
                + duration
            )
            request = ResourceRequest(
                nodes=1,
                cores_per_node=cores,
                memory_gb_per_node=memory,
                # The facility's per-job walltime template; a call
                # whose work exceeds it is killed by the batch
                # system, exactly like real Cromwell backends.
                walltime_s=self.options.default_walltime_s,
            )
            has_file_output = any(d.type.name == "File" for d in task.outputs)
            # The task object rides along in the value so ``id(task)``
            # cannot be recycled for a different object while cached.
            info = (docker, cores, duration, total, request,
                    has_file_output, task)
            self._task_info[id(task)] = info
        return info

    # -- expression evaluation ------------------------------------------------------

    def _eval(self, expr, scope: dict, call_events: dict):
        """Generator evaluating an expression, waiting on call results.

        It yields only a call's output event that is not yet processed,
        or that failed; :func:`_settle` runs it without a process.
        """
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ArrayLit):
            values = []
            for item in expr.items:
                values.append((yield from self._eval(item, scope, call_events)))
            return values
        if isinstance(expr, Ident):
            if expr.name in scope:
                return scope[expr.name]
            raise WdlRuntimeError(f"Unknown identifier {expr.name!r}")
        if isinstance(expr, Attr):
            if not isinstance(expr.base, Ident):
                raise WdlRuntimeError("Only call.output references are supported")
            cname = expr.base.name
            if cname in call_events:
                ev = call_events[cname]
                if ev.callbacks is not None or not ev._ok:
                    yield ev
                namespace = ev.value
            elif cname in scope and isinstance(scope[cname], dict):
                namespace = scope[cname]
            else:
                raise WdlRuntimeError(f"Unknown call reference {cname!r}")
            if expr.attr not in namespace:
                raise WdlRuntimeError(
                    f"call {cname!r} has no output {expr.attr!r}"
                )
            return namespace[expr.attr]
        if isinstance(expr, FuncCall):
            args = []
            for a in expr.args:
                args.append((yield from self._eval(a, scope, call_events)))
            if expr.name == "range":
                return list(range(int(args[0])))
            if expr.name == "length":
                return len(args[0])
            if expr.name == "sub":
                return str(args[0]).replace(str(args[1]), str(args[2]))
            raise WdlRuntimeError(f"Unknown function {expr.name!r}")
        raise WdlRuntimeError(f"Cannot evaluate {expr!r}")


def _settle(gen):
    """Run an :meth:`CromwellEngine._eval` generator without simulated
    time: its value, or the first call output event it would wait on."""
    try:
        event = gen.send(None)
    except StopIteration as stop:
        return stop.value
    gen.close()
    return event


class _Call:
    """One call (or scatter shard) of a run, driven by kernel callbacks.

    A handle rather than a process, so that a 10k-shard scatter holds
    10k small objects but no generator frames, and dispatches no
    process-end events.  Its steps, each a callback on an event that
    exists anyway:

    1. ``_start`` runs at an URGENT event, the slot where a process
       would have been initialised, and records the call;
    2. ``_bind`` evaluates the inputs.  At the first upstream output
       event not yet processed it registers itself there and returns;
       when that event fires it binds again from the start (binding
       is pure);
    3. a cache hit publishes at once; otherwise ``_gated`` holds a
       scatter-gate slot (when there is a gate) and ``_submit`` hands
       the job to the batch system;
    4. at the job's completion ``_close`` ends the span, the gate slot
       is returned, and ``_publish`` succeeds the output event ``out``,
       or fails it (defused: whoever waits on it reports the failure).

    A call waiting on a failed upstream call stops there silently: the
    run already carries the upstream error.  ``name`` is what the
    sanitizer prints for the call's dispatch units.
    """

    __slots__ = (
        "engine", "call", "task", "scope", "call_events", "result", "out",
        "shard", "gate", "label", "record", "bound", "cost", "cache_key",
        "span", "req",
    )

    def __init__(self, engine, document, call, scope, call_events, result,
                 out, shard, gate):
        self.engine = engine
        self.call = call
        self.task = document.tasks[call.task_name]
        self.scope = scope
        self.call_events = call_events
        self.result = result
        self.out = out
        self.shard = shard
        self.gate = gate
        self.label = call.name + (f"[{shard}]" if shard is not None else "")
        self.span = self.req = None
        start = engine.env.event()
        start.callbacks.append(self._start)
        start.succeed(priority=URGENT)

    @property
    def name(self) -> str:
        return f"call:{self.label}"

    def _start(self, _event) -> None:
        self.record = CallRecord(
            call_name=self.call.name, task_name=self.task.name, shard=self.shard
        )
        self.result.records.append(self.record)
        self._bind()

    def _fail(self, exc: Exception) -> None:
        self.out.fail(exc)
        self.out.defused = True

    def _bind(self, _upstream=None) -> None:
        try:
            bound = self._inputs()
            if isinstance(bound, Event):
                # A processed event here is a failed upstream call: stop.
                if bound.callbacks is not None:
                    bound.callbacks.append(self._bind)
                return
            self._launch(bound)
        except Exception as exc:
            self._fail(exc)

    def _inputs(self):
        """The bound inputs, or the upstream event they wait on.

        Literal and in-scope Ident are the common case for scatter
        shards, so they skip the generator round-trip through _eval.
        """
        scope = self.scope
        bound: dict = {}
        for pname, expr in self.call.inputs.items():
            if isinstance(expr, Literal):
                bound[pname] = expr.value
            elif isinstance(expr, Ident) and expr.name in scope:
                bound[pname] = scope[expr.name]
            else:
                value = _settle(self.engine._eval(expr, scope, self.call_events))
                if isinstance(value, Event):
                    return value
                bound[pname] = value
        for decl in self.task.inputs:
            if decl.name not in bound:
                if decl.expr is not None:
                    bound[decl.name] = _settle(
                        self.engine._eval(decl.expr, bound, {})
                    )
                elif decl.name in scope:
                    bound[decl.name] = scope[decl.name]
                else:
                    raise WdlRuntimeError(
                        f"call {self.call.name!r}: missing input {decl.name!r}"
                    )
        return bound

    def _launch(self, bound: dict) -> None:
        engine, task, shard = self.engine, self.task, self.shard
        options = engine.options
        self.bound = bound
        self.cost = engine._task_cost(task)
        docker, _, duration, _, _, has_file_output, _ = self.cost
        tracer = engine.env.tracer
        # The cache key (and the content id derived from it) is only
        # consulted when call caching is on or a File output embeds the
        # content id in its path; a scatter of plain value outputs skips
        # the per-shard repr/sort entirely.
        if options.call_caching or has_file_output:
            self.cache_key = (
                task.name,
                docker,
                tuple(sorted((k, repr(v)) for k, v in bound.items())),
            )
        else:
            self.cache_key = None
        if options.call_caching and self.cache_key in engine._cache:
            record = self.record
            record.cached = True
            record.start_time = record.end_time = engine.env.now
            # Zero-duration span: the cache hit is visible in the trace
            # as a call that cost nothing.
            if tracer.enabled:
                tracer.start(
                    self.label,
                    category="jaws.call",
                    component="cromwell",
                    tags={"task": task.name, "shard": shard, "cached": True},
                ).finish()
            self.out.succeed(engine._cache[self.cache_key])
            return
        if tracer.enabled:
            self.span = tracer.start(
                self.label,
                category="jaws.call",
                component="cromwell",
                tags={"task": task.name, "shard": shard, "cached": False},
            )
            # Expose the cost split on the span so trace analysis can
            # attribute shard time to overhead vs useful compute
            # without re-deriving the engine's cost model.
            self.span.tag(
                container_start_s=options.container_start_s,
                stage_overhead_s=options.stage_overhead_s,
                compute_s=duration,
            )
        if self.gate is not None:
            self._gated(None)
        else:
            self._submit(self._finish)

    def _gated(self, event) -> None:
        """A gate slot's whole lease: claim it (``event`` None), submit
        the job once it is granted, and return it when the job ends."""
        gate = self.gate
        if event is None:
            self.req = gate.request()
            self.req.callbacks.append(self._gated)
        elif event is self.req:
            self._submit(self._gated)
        else:
            try:
                self._close(event.value)
            finally:
                gate.release(self.req)
            self._publish(event.value)

    def _submit(self, on_completion) -> None:
        _, cores, _, total, request, _, _ = self.cost
        record = self.record
        record.cores = cores
        record.start_time = self.engine.env.now
        job = Job(
            request=request,
            duration=total,
            name=f"{self.result.workflow_name}/{self.label}",
            user="jaws",
        )
        self.engine.batch.submit(job)
        job.completion.callbacks.append(on_completion)

    def _finish(self, completion) -> None:
        self._close(completion.value)
        self._publish(completion.value)

    def _close(self, job: Job) -> None:
        self.record.end_time = self.engine.env.now
        if self.span is not None:
            self.span.tag(state=job.state.value).finish()

    def _publish(self, job: Job) -> None:
        if job.state != JobState.COMPLETED:
            self._fail(
                WdlRuntimeError(
                    f"call {self.call.name!r} failed: {job.failure_cause!r}"
                )
            )
            return
        try:
            outputs = self._outputs()
        except Exception as exc:
            self._fail(exc)
            return
        if self.engine.options.call_caching:
            self.engine._cache[self.cache_key] = outputs
        self.out.succeed(outputs)

    def _outputs(self) -> dict:
        bound, cache_key = self.bound, self.cache_key
        outputs = {}
        # File outputs carry content identity: the same logical filename
        # produced from different inputs is a different file, so the
        # digest of the bound inputs goes into the synthesized path
        # (keeps downstream call-cache keys honest).
        content_id = None
        for decl in self.task.outputs:
            expr = decl.expr
            if isinstance(expr, Literal):
                value = expr.value
            elif isinstance(expr, Ident) and expr.name in bound:
                value = bound[expr.name]
            else:
                value = _settle(self.engine._eval(expr, bound, {}))
            if decl.type.name == "File" and isinstance(value, str):
                if content_id is None:
                    content_id = hashlib.sha256(
                        repr(cache_key).encode()
                    ).hexdigest()[:8]
                value = f"{self.call.name}-{content_id}/{value}"
            outputs[decl.name] = value
        return outputs
