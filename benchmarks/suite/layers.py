"""Outside-in per-layer trace for ``--layers`` runs.

Nothing under ``src/`` changes.  While a :class:`LayerTrace` is active:

- ``Environment.process`` wraps every generator it is handed in a
  :class:`TimedGenerator`, so each resume of a simulation process is a
  span charged to the ``repro`` package that defines the generator
  (``gi_code.co_filename``);
- the public entry points listed in :data:`PROBES` are replaced, at
  every name a caller looks them up by, with wrappers that record one
  span per call.

A span holds a name, a layer, start and end (``perf_counter``), its
parent and the sample it belongs to.  Spans stay in memory, in parallel
arrays, and are written out as JSONL when the run ends.  A layer's self
time is its spans' durations minus the part their child spans cover.

What the trace cannot see yet: event callbacks that run outside any
process resume (condition checks, ``run(until=...)`` stops) are charged
to ``simkernel`` together with dispatch, until the program has an
in-process observer of its own.  Calls into a package that is not
probed (``Node.fits`` from the Kube scheduler, the null tracer) are
charged to the caller's layer.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from repro.obs.stream import JsonlSpillSink
from repro.simkernel import Environment

#: Layers reported by name; any other package is counted as ``other``.
LAYERS = (
    "simkernel", "rm", "cluster", "entk", "jaws", "engines", "cws", "core", "obs",
    "report",
)

#: Public entry points wrapped per layer (``module:Qualified.name``).
#: ``obs`` is split into the groups its metrics are reported by.
PROBES = {
    "simkernel": ("repro.simkernel.core:Environment.__init__",),
    "rm": (
        "repro.rm.batch:BatchScheduler.__init__",
        "repro.rm.batch:BatchScheduler.submit",
        "repro.rm.kube:KubeScheduler.__init__",
        "repro.rm.kube:KubeScheduler.submit",
    ),
    "cluster": (
        "repro.cluster.cluster:Cluster.__init__",
        "repro.cluster.cluster:Cluster.find_nodes",
        "repro.cluster.cluster:Cluster.track_acquire",
        "repro.cluster.cluster:Cluster.track_release",
        "repro.cluster.cluster:FreeNodePool.first_fit",
        "repro.cluster.cluster:FreeNodePool.iter_matching",
        "repro.cluster.node:Node.allocate",
        "repro.cluster.node:Allocation.release",
    ),
    "entk": (
        "repro.entk.platforms:platform_cluster",
        "repro.entk.appmanager:AppManager.__init__",
        "repro.entk.appmanager:AppManager.run",
    ),
    "jaws": (
        "repro.jaws.wdl:parse_wdl",
        "repro.jaws.engine:CromwellEngine.__init__",
        "repro.jaws.engine:CromwellEngine.run",
    ),
    "engines": (
        "repro.engines.taskwise:NextflowLikeEngine.__init__",
        "repro.engines.taskwise:NextflowLikeEngine.run",
    ),
    "cws": (
        "repro.cws.interface:CWSI.__init__",
        "repro.cws.interface:CWSI.register_workflow",
        "repro.cws.interface:CWSI.task_submitted",
        "repro.cws.interface:CWSI.task_finished",
        "repro.cws.strategies:RankStrategy.prioritize",
        "repro.cws.strategies:FileSizeStrategy.prioritize",
        "repro.cws.strategies:PredictiveHeftStrategy.prioritize",
        "repro.cws.strategies:_StoreBackedStrategy.select_node",
        "repro.cws.strategies:PredictiveHeftStrategy.select_node",
    ),
    "core": (
        "repro.core.metrics:upward_ranks",
        "repro.core.workflow:Workflow.ready_tasks",
    ),
    "obs.metrics": (
        "repro.obs.metrics:Gauge.record",
        "repro.obs.metrics:Counter.record",
        "repro.obs.metrics:Counter.inc",
        "repro.obs.metrics:UtilizationTracker.acquire",
        "repro.obs.metrics:UtilizationTracker.release",
    ),
    "obs.write": (
        "repro.obs.tracer:enable_tracing",
        "repro.obs.tracer:Tracer.start",
        "repro.obs.tracer:Tracer.instant",
        "repro.obs.tracer:Tracer.close",
        "repro.obs.tracer:Span.finish",
        "repro.obs.tracer:SpanSink.on_start",
        "repro.obs.tracer:InMemorySink.on_start",
        "repro.obs.tracer:InMemorySink.on_instant",
        "repro.obs.stream:JsonlSpillSink.__init__",
        "repro.obs.stream:JsonlSpillSink.on_finish",
        "repro.obs.stream:JsonlSpillSink.on_instant",
        "repro.obs.stream:JsonlSpillSink.close",
    ),
    "obs.read": ("repro.obs.stream:StubTrace.from_jsonl",),
    "obs.analyze": (
        "repro.obs.analyze:critical_path",
        "repro.obs.analyze:find_stragglers",
        "repro.obs.analyze:find_idle_gaps",
        "repro.obs.analyze:pilot_components",
        "repro.obs.analyze:decompose_overheads",
        "repro.obs.alerts:evaluate_rules",
    ),
    "report": ("repro.report:build_report",),
}

#: Per-layer metrics: name -> unit.  Times are shares of the traced
#: sample's wall time (``trace.sample_s``), so a layer absent from a
#: workload reads 0 without posing as a measured duration.
METRICS = {
    "simkernel.self_share": "ratio",
    "simkernel.run_share": "ratio",
    "simkernel.events": "count",
    "simkernel.resumes": "count",
    "simkernel.processes": "count",
    "rm.self_share": "ratio",
    "rm.resumes": "count",
    "rm.submits": "count",
    "rm.jobs_per_pass": "jobs/pass",
    "cluster.self_share": "ratio",
    "cluster.first_fit_calls": "count",
    "cluster.find_nodes_calls": "count",
    "cluster.track_calls": "count",
    "entk.self_share": "ratio",
    "entk.resumes": "count",
    "entk.tasks_per_pass": "tasks/pass",
    "jaws.self_share": "ratio",
    "jaws.resumes": "count",
    "jaws.parse_share": "ratio",
    "engines.self_share": "ratio",
    "engines.resumes": "count",
    "cws.self_share": "ratio",
    "cws.prioritize_calls": "count",
    "cws.select_node_calls": "count",
    "core.self_share": "ratio",
    "core.upward_ranks_calls": "count",
    "obs.metrics_share": "ratio",
    "obs.metrics_calls": "count",
    "obs.write_share": "ratio",
    "obs.records": "count",
    "obs.bytes": "bytes",
    "obs.read_share": "ratio",
    "obs.analyze_share": "ratio",
    "report.self_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.sample_s": "s",
}

#: Scheduler passes per layer: (processes whose resumes are one pass
#: each, processes started once per job or task handed out).
_PASSES = {
    "rm": (
        ("BatchScheduler._scheduler_loop", "KubeScheduler._scheduler_loop"),
        ("BatchScheduler._run_job", "KubeScheduler._run_pod"),
    ),
    "entk": (("PilotAgent._scheduler_loop",), ("PilotAgent._execute",)),
}

_ROOT = "sample"


def package_of(filename: str) -> str:
    """The ``repro`` subpackage a source file belongs to (``bench`` if none)."""
    _, found, rest = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "bench"
    package, _, module = rest.partition("/")
    return package if module else "repro"


class SpanStore:
    """Spans in parallel arrays, plus per-sample counters.

    Only spans opened while a sample is active are kept; everything the
    harness does between samples goes unrecorded.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], tuple[int, int]] = {}
        self.resume_names: set[int] = set()
        self.name = array("q")
        self.layer = array("q")
        self.parent = array("q")
        self.sample = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._stack = [-1]
        self._sample = -1

    def ids(self, name: str, layer: str, resume: bool = False) -> tuple[int, int]:
        key = (name, layer)
        got = self._ids.get(key)
        if got is None:
            if layer not in self.layers:
                self.layers.append(layer)
            got = self._ids[key] = (len(self.names), self.layers.index(layer))
            self.names.append(name)
            if resume:
                self.resume_names.add(got[0])
        return got

    def open(self, name_id: int, layer_id: int) -> int:
        if self._sample < 0:
            return -1
        sid = len(self.start)
        self.name.append(name_id)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.sample.append(self._sample)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        if sid >= 0:
            self.end[sid] = perf_counter()
            self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self._sample >= 0:
            self.counts[(self._sample, key)] += n

    def begin_sample(self, index: int) -> int:
        self._sample = index
        return self.open(*self.ids(_ROOT, "bench"))

    def end_sample(self, sid: int) -> None:
        self.close(sid)
        self._sample = -1

    def write_jsonl(self, path) -> None:
        """One span per line; times in integer nanoseconds from the
        start of the span's sample."""
        names = [json.dumps(n) for n in self.names]
        layers = [json.dumps(layer) for layer in self.layers]
        origin: dict[int, float] = {}
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                t0 = origin.setdefault(self.sample[i], self.start[i])
                fh.write(
                    f'{{"id":{i},"name":{names[self.name[i]]},'
                    f'"layer":{layers[self.layer[i]]},'
                    f'"start_ns":{round((self.start[i] - t0) * 1e9)},'
                    f'"end_ns":{round((self.end[i] - t0) * 1e9)},'
                    f'"parent":{self.parent[i]},"sample":{self.sample[i]}}}\n'
                )


class TimedGenerator:
    """Generator stand-in that records each resume as a span."""

    __slots__ = ("_gen", "_store", "_name_id", "_layer_id", "__name__")

    def __init__(self, gen, store: SpanStore, name_id: int, layer_id: int):
        self._gen = gen
        self._store = store
        self._name_id = name_id
        self._layer_id = layer_id
        self.__name__ = gen.__name__

    def send(self, value):
        store = self._store
        sid = store.open(self._name_id, self._layer_id)
        try:
            return self._gen.send(value)
        finally:
            store.close(sid)

    def throw(self, *exc):
        store = self._store
        sid = store.open(self._name_id, self._layer_id)
        try:
            return self._gen.throw(*exc)
        finally:
            store.close(sid)

    def close(self):
        return self._gen.close()


def _resolve(spec: str):
    """``module:Qual.attr`` -> (owner, attr, raw attribute)."""
    module_name, qual = spec.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def _timed(fn, store: SpanStore, ids: tuple[int, int]):
    name_id, layer_id = ids

    def wrapper(*args, **kwargs):
        sid = store.open(name_id, layer_id)
        try:
            return fn(*args, **kwargs)
        finally:
            store.close(sid)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


class LayerTrace:
    """Context manager: install the probes on enter, restore on exit."""

    def __init__(self) -> None:
        self.store = SpanStore()
        self._undo: list[tuple] = []

    def __enter__(self) -> "LayerTrace":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        store = self.store
        for group, specs in PROBES.items():
            for spec in specs:
                owner, attr, raw = _resolve(spec)
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                qual = f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
                wrapped = _timed(fn, store, store.ids(qual, group))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._patch_everywhere(owner, raw, wrapped)
        self._wrap_run(store)
        self._wrap_process(store)
        self._wrap_spill_close(store)

    def _patch_everywhere(self, owner, raw, wrapped) -> None:
        """Replace ``raw`` at every name a caller looks it up by: aliases
        in its class (``Gauge.set = record``), or every ``repro`` module
        that imported a function by name."""
        if isinstance(owner, type):
            for name, value in list(vars(owner).items()):
                if value is raw:
                    self._set(owner, name, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith(("repro.", "benchmarks."))
            ):
                continue
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, name, wrapped)

    def _wrap_run(self, store: SpanStore) -> None:
        run = vars(Environment)["run"]
        name_id, layer_id = store.ids("Environment.run", "simkernel")

        def timed_run(env, until=None):
            before = env.scheduled_events
            sid = store.open(name_id, layer_id)
            try:
                return run(env, until)
            finally:
                store.close(sid)
                store.count("simkernel.events", env.scheduled_events - before)

        self._set(Environment, "run", timed_run)

    def _wrap_process(self, store: SpanStore) -> None:
        process = vars(Environment)["process"]
        packages: dict[str, str] = {}

        def traced_process(env, generator, name=None):
            code = getattr(generator, "gi_code", None)
            if code is None:
                return process(env, generator, name)
            layer = packages.get(code.co_filename)
            if layer is None:
                layer = packages[code.co_filename] = package_of(code.co_filename)
            qual = generator.__qualname__
            store.count("simkernel.processes")
            store.count("process:" + qual)
            proxy = TimedGenerator(generator, store, *store.ids(qual, layer, resume=True))
            return process(env, proxy, name)

        self._set(Environment, "process", traced_process)

    def _wrap_spill_close(self, store: SpanStore) -> None:
        close = vars(JsonlSpillSink)["close"]  # already the timed wrapper

        def counted_close(sink):
            close(sink)
            store.count("obs.records", sink.total_records)
            store.count("obs.bytes", sum(os.path.getsize(p) for p in sink.segments()))

        self._set(JsonlSpillSink, "close", counted_close)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def sample_breakdown(store: SpanStore) -> dict[int, dict]:
    """Per sample: wall time, self and total time per span group and
    per name, resumes per layer, and the counters."""
    parent = np.array(store.parent, dtype=np.int64)
    dur = np.array(store.end) - np.array(store.start)
    child = np.zeros(len(dur))
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    self_t = (dur - child).tolist()
    dur = dur.tolist()
    out: dict[int, dict] = {}
    for i, k in enumerate(store.sample):
        rec = out.get(k)
        if rec is None:
            rec = out[k] = {
                "wall_s": 0.0, "self": defaultdict(float), "total": defaultdict(float),
                "calls": defaultdict(int), "resumes": defaultdict(int),
                "layer_resumes": defaultdict(int), "counts": {},
            }
        name_id = store.name[i]
        group = store.layers[store.layer[i]]
        name = store.names[name_id]
        if store.parent[i] < 0:
            rec["wall_s"] = dur[i]
        rec["self"][group] += self_t[i]
        rec["total"][name] += dur[i]
        rec["calls"][name] += 1
        if name_id in store.resume_names:
            rec["resumes"][name] += 1
            rec["layer_resumes"][group] += 1
    for (k, key), value in store.counts.items():
        if k in out:
            out[k]["counts"][key] = value
    return out


def layer_metrics(rec: dict) -> dict:
    """Every :data:`METRICS` value for one traced sample (shares of its
    wall time), plus ``self_s`` per layer in raw seconds."""
    wall = rec["wall_s"]
    self_t = rec["self"]
    calls = rec["calls"]
    resumes = rec["resumes"]
    counts = rec["counts"]

    def layer_self(layer: str) -> float:
        return sum(v for g, v in self_t.items() if g.split(".")[0] == layer)

    def layer_resumes(layer: str) -> int:
        return rec["layer_resumes"].get(layer, 0)

    def per_pass(layer: str) -> float:
        loops, units = _PASSES[layer]
        passes = sum(resumes.get(q, 0) for q in loops)
        handed_out = sum(counts.get("process:" + q, 0) for q in units)
        return handed_out / passes if passes else 0.0

    m = {
        "simkernel.self_share": layer_self("simkernel") / wall,
        "simkernel.run_share": rec["total"].get("Environment.run", 0.0) / wall,
        "simkernel.events": counts.get("simkernel.events", 0),
        "simkernel.resumes": sum(rec["layer_resumes"].values()),
        "simkernel.processes": counts.get("simkernel.processes", 0),
        "rm.self_share": layer_self("rm") / wall,
        "rm.resumes": layer_resumes("rm"),
        "rm.submits": calls.get("BatchScheduler.submit", 0) + calls.get("KubeScheduler.submit", 0),
        "rm.jobs_per_pass": per_pass("rm"),
        "cluster.self_share": layer_self("cluster") / wall,
        "cluster.first_fit_calls": calls.get("FreeNodePool.first_fit", 0),
        "cluster.find_nodes_calls": calls.get("Cluster.find_nodes", 0),
        "cluster.track_calls": calls.get("Cluster.track_acquire", 0) + calls.get("Cluster.track_release", 0),
        "entk.self_share": layer_self("entk") / wall,
        "entk.resumes": layer_resumes("entk"),
        "entk.tasks_per_pass": per_pass("entk"),
        "jaws.self_share": layer_self("jaws") / wall,
        "jaws.resumes": layer_resumes("jaws"),
        "jaws.parse_share": rec["total"].get("parse_wdl", 0.0) / wall,
        "engines.self_share": layer_self("engines") / wall,
        "engines.resumes": layer_resumes("engines"),
        "cws.self_share": layer_self("cws") / wall,
        "cws.prioritize_calls": sum(v for q, v in calls.items() if q.endswith(".prioritize")),
        "cws.select_node_calls": sum(v for q, v in calls.items() if q.endswith(".select_node")),
        "core.self_share": layer_self("core") / wall,
        "core.upward_ranks_calls": calls.get("upward_ranks", 0),
        "obs.metrics_share": self_t.get("obs.metrics", 0.0) / wall,
        "obs.metrics_calls": sum(
            calls.get(q, 0) for q in _names_in(PROBES["obs.metrics"])
        ),
        "obs.write_share": self_t.get("obs.write", 0.0) / wall,
        "obs.records": counts.get("obs.records", 0),
        "obs.bytes": counts.get("obs.bytes", 0),
        "obs.read_share": self_t.get("obs.read", 0.0) / wall,
        "obs.analyze_share": self_t.get("obs.analyze", 0.0) / wall,
        "report.self_share": layer_self("report") / wall,
        "trace.coverage": sum(layer_self(layer) for layer in LAYERS) / wall,
    }
    m["self_s"] = {layer: layer_self(layer) for layer in LAYERS}
    m["self_s"]["other"] = wall - sum(m["self_s"].values()) - self_t.get("bench", 0.0)
    return m


def _names_in(specs) -> list[str]:
    return [spec.split(":")[1] for spec in specs]
