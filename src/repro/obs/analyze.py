"""Trace diagnosis: critical paths, stragglers, idle gaps, overheads.

:mod:`repro.obs` records *what happened*; this module answers *why the
run took as long as it did*.  Everything here is a pure function of a
recorded trace — run it live on a tracer or post-hoc on a JSONL file
reloaded with :func:`repro.obs.export.tracer_from_jsonl`.

- :func:`critical_path` — a backward "last finisher" walk over the
  span DAG (parent/child containment plus optional task-dependency
  edges).  It tiles the analysis window with contiguous segments, each
  blamed on one span (or classified gap), so **phase durations sum to
  the window length by construction** — the property the run reports
  assert against the job runtime.  This is the decomposition the
  ExaWorks-on-Frontier study uses to chase full-system utilization.
- :func:`find_stragglers` — robust outlier detection on sibling span
  durations (median + MAD modified z-score), the "which task is the
  long pole" question.
- :func:`find_idle_gaps` — maximal intervals where a busy/concurrency
  series sits at or below a floor: holes in the node/core timeline.
- :func:`decompose_overheads` — the Fig-4 OVH/TTX split refined into
  agent phases (bootstrap, ramp-up, steady state, drain, shutdown)
  plus per-task queue-wait statistics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from repro.obs.metrics import Gauge, UtilizationTracker
from repro.obs.query import TraceQuery
from repro.obs.tracer import Span, Tracer

#: Canonical phase vocabulary, in report order.  ``other`` catches
#: spans whose category no layer has mapped yet.
PHASES = (
    "bootstrap",
    "scheduling",
    "launch",
    "compute",
    "transfer",
    "drain",
    "idle",
    "other",
)

#: Default span-category → phase attribution.  Layers adding new span
#: categories should extend this map (or pass ``phase_of``).
PHASE_OF_CATEGORY = {
    "entk.bootstrap": "bootstrap",
    "entk.task": "scheduling",   # submit → scheduled wait dominates it
    "entk.pending": "launch",    # pending-launch queue = launcher-bound
    "entk.exec": "compute",
    "engine.task": "scheduling",  # submit → terminal; picked when no pod span ends
    "rm.pod": "compute",
    "rm.job": "compute",
    "atlas.file": "compute",
    "atlas.step": "compute",
    "jaws.call": "compute",
    "jaws.stage": "transfer",
    "data.transfer": "transfer",
    "kernel.process": "other",
}

#: ``(category, name)`` refinements consulted before the category map:
#: the Atlas download steps are transfers even though they are
#: pipeline steps.
PHASE_OF_NAME = {
    ("atlas.step", "prefetch"): "transfer",
    ("atlas.step", "upload"): "transfer",
}

#: Container spans never *explain* elapsed time on their own — they
#: wrap the finer spans that do — so the walk skips them by default.
DEFAULT_EXCLUDE = frozenset({"rm.job", "kernel.process", "obs.alert"})

#: When a gap must be classified by what was open across it, more
#: specific phases win.
_GAP_PRIORITY = ("bootstrap", "transfer", "launch", "scheduling", "compute")


def default_phase_of(span: Span) -> str:
    """Phase attribution for one span: name override, then category."""
    by_name = PHASE_OF_NAME.get((span.category, span.name))
    if by_name is not None:
        return by_name
    return PHASE_OF_CATEGORY.get(span.category, "other")


@dataclass(frozen=True)
class PathSegment:
    """One contiguous slice of the critical path."""

    t0: float
    t1: float
    phase: str
    span_id: Optional[int] = None  # None for classified gaps
    name: str = ""
    category: str = ""

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "duration": self.duration,
            "phase": self.phase,
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
        }


@dataclass
class CriticalPath:
    """A contiguous tiling of ``[t0, t1]`` by blamed segments.

    Invariant (asserted by the run reports): the segment durations sum
    to ``t1 - t0`` exactly, so per-phase blame is a true decomposition
    of the makespan, not a sample of it.
    """

    t0: float
    t1: float
    segments: list = field(default_factory=list)  # chronological

    @property
    def makespan(self) -> float:
        return self.t1 - self.t0

    def phase_totals(self) -> dict:
        """``phase -> total seconds`` in canonical order, only phases
        that actually appear."""
        totals: dict[str, float] = {}
        for seg in self.segments:
            totals[seg.phase] = totals.get(seg.phase, 0.0) + seg.duration
        ordered = {p: totals[p] for p in PHASES if p in totals}
        for p in sorted(totals):
            ordered.setdefault(p, totals[p])
        return ordered

    def blame(self) -> dict:
        """``phase -> fraction of the makespan`` (sums to 1.0)."""
        span = self.makespan
        if span <= 0:
            return {}
        return {p: d / span for p, d in self.phase_totals().items()}

    def longest_segments(self, n: int = 5) -> list:
        return sorted(self.segments, key=lambda s: (-s.duration, s.t0))[:n]

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "makespan": self.makespan,
            "phase_totals": self.phase_totals(),
            "blame": self.blame(),
            "segments": [s.to_dict() for s in self.segments],
        }

    def __repr__(self) -> str:
        phases = ", ".join(
            f"{p}={d:.1f}s" for p, d in self.phase_totals().items()
        )
        return f"<CriticalPath {self.makespan:.1f}s: {phases}>"


def _as_query(trace: Union[Tracer, TraceQuery]) -> TraceQuery:
    return trace if isinstance(trace, TraceQuery) else TraceQuery(trace)


def critical_path(
    trace: Union[Tracer, TraceQuery],
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    phase_of: Optional[Callable[[Span], str]] = None,
    exclude_categories: Iterable[str] = DEFAULT_EXCLUDE,
    deps: Optional[dict] = None,
    task_tag: str = "task",
    eps: float = 1e-9,
) -> CriticalPath:
    """Extract the critical path of a run from its span trace.

    The walk starts at ``t1`` (default: latest span end) and repeatedly
    asks *"what was the last activity to finish before this moment?"*:

    1. Among finished spans ending at or before the cursor (and
       starting strictly before it), take the latest-ending one;
       ties prefer the latest-starting (deepest/most specific) span,
       so a leaf ``exec`` span beats the whole-lifecycle span that
       closes at the same instant.
    2. If the winner ends strictly before the cursor, the uncovered
       gap is classified by what was *open* across it (queue spans →
       their phase; nothing after the last activity → ``drain``;
       nothing at all → ``idle``).
    3. The winner's interval joins the path; the cursor jumps to its
       start; repeat until ``t0``.

    ``deps`` optionally supplies task-dependency edges as a mapping
    ``task name -> iterable of prerequisite task names`` (matched
    against the ``task_tag`` span tag, falling back to the span name).
    When the current critical span belongs to a task with known
    prerequisites, the walk follows the latest-finishing prerequisite
    instead of the globally latest finisher — the classic workflow
    critical path rather than the resource critical path.
    """
    q = _as_query(trace)
    phase_of = phase_of or default_phase_of
    excluded = frozenset(exclude_categories)
    spans = [
        s
        for s in q.tracer.spans
        if s.end is not None and s.category not in excluded
    ]
    if not spans:
        lo = 0.0 if t0 is None else t0
        hi = lo if t1 is None else t1
        return CriticalPath(t0=lo, t1=hi, segments=[])

    lo = min(s.start for s in spans) if t0 is None else float(t0)
    hi = max(s.end for s in spans) if t1 is None else float(t1)

    # end-sorted candidates; ties resolved toward later starts, then
    # later ids, so "last with end <= cursor" is also the tie winner.
    ordered = sorted(spans, key=lambda s: (s.end, s.start, s.span_id))
    ends = [s.end for s in ordered]

    by_task: dict[str, list[Span]] = {}
    if deps:
        for s in ordered:
            key = s.tags.get(task_tag, s.name)
            if isinstance(key, str):
                by_task.setdefault(key, []).append(s)

    def task_key(span: Span):
        key = span.tags.get(task_tag, span.name)
        return key if isinstance(key, str) else None

    def last_finisher(cursor: float) -> Optional[Span]:
        """Latest-ending span with ``end <= cursor`` and ``start < cursor``."""
        idx = bisect.bisect_right(ends, cursor + eps) - 1
        while idx >= 0:
            s = ordered[idx]
            if s.end <= lo + eps:
                return None
            if s.start < cursor - eps:
                return s
            idx -= 1
        return None

    def dep_finisher(span: Span) -> Optional[Span]:
        """Latest-finishing prerequisite of ``span`` (when deps given)."""
        key = task_key(span)
        if not deps or key is None or key not in deps:
            return None
        best = None
        for dep_name in deps[key]:
            for s in by_task.get(dep_name, ()):
                # Strict progress: the prerequisite must start before
                # the dependent does, or the walk could stall on
                # zero-duration spans (cache hits).
                if (
                    s.end <= span.start + eps
                    and s.start < span.start - eps
                    and (
                        best is None
                        or (s.end, s.start, s.span_id)
                        > (best.end, best.start, best.span_id)
                    )
                ):
                    best = s
        return best

    segments: list[PathSegment] = []

    # Per-phase "open span count" step functions, so gap classification
    # is a bisect per phase instead of a scan over every span.
    phase_steps: dict[str, tuple[list, list]] = {}
    deltas: dict[str, dict[float, int]] = {}
    for s in spans:
        d = deltas.setdefault(phase_of(s), {})
        d[s.start] = d.get(s.start, 0) + 1
        d[s.end] = d.get(s.end, 0) - 1
    for phase, d in deltas.items():
        ts: list[float] = []
        counts: list[int] = []
        level = 0
        for t in sorted(d):
            level += d[t]
            ts.append(t)
            counts.append(level)
        phase_steps[phase] = (ts, counts)

    def phase_open_at(phase: str, t: float) -> bool:
        step = phase_steps.get(phase)
        if step is None:
            return False
        ts, counts = step
        idx = bisect.bisect_right(ts, t) - 1
        return idx >= 0 and counts[idx] > 0

    def classify_gap(g0: float, g1: float, first: bool) -> str:
        mid = (g0 + g1) / 2.0
        for phase in _GAP_PRIORITY:
            if phase_open_at(phase, mid):
                return phase
        # Nothing open at all: trailing gap = drain, leading/interior
        # emptiness = idle.
        return "drain" if first else "idle"

    cursor = hi
    current: Optional[Span] = None  # span whose start the cursor sits at
    while cursor > lo + eps:
        nxt = dep_finisher(current) if current is not None else None
        if nxt is None:
            nxt = last_finisher(cursor)
        if nxt is None:
            segments.append(
                PathSegment(
                    t0=lo,
                    t1=cursor,
                    phase=classify_gap(lo, cursor, first=not segments),
                )
            )
            cursor = lo
            break
        if nxt.end < cursor - eps:
            segments.append(
                PathSegment(
                    t0=nxt.end,
                    t1=cursor,
                    phase=classify_gap(nxt.end, cursor, first=not segments),
                )
            )
            cursor = nxt.end
        seg_start = max(nxt.start, lo)
        segments.append(
            PathSegment(
                t0=seg_start,
                t1=cursor,
                phase=phase_of(nxt),
                span_id=nxt.span_id,
                name=nxt.name,
                category=nxt.category,
            )
        )
        cursor = seg_start
        current = nxt

    segments.reverse()
    return CriticalPath(t0=lo, t1=hi, segments=segments)


# -- straggler detection ---------------------------------------------------------


@dataclass(frozen=True)
class Straggler:
    """One span flagged as abnormally slow among its siblings."""

    span_id: int
    name: str
    category: str
    component: str
    duration: float
    median: float
    mad: float
    score: float  # modified z-score (inf when MAD == 0)

    @property
    def excess(self) -> float:
        return self.duration - self.median

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "component": self.component,
            "duration": self.duration,
            "median": self.median,
            "score": self.score if self.score != float("inf") else None,
        }


def _median(values: list) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def find_stragglers(
    trace: Union[Tracer, TraceQuery],
    category: Optional[str] = None,
    component: Optional[str] = None,
    name: Optional[str] = None,
    tags: Optional[dict] = None,
    group_by: Optional[Callable[[Span], tuple]] = None,
    threshold: float = 3.5,
    rel_threshold: float = 0.5,
    min_group: int = 4,
    min_excess_s: float = 0.0,
) -> list:
    """Flag spans whose duration is an outlier among their siblings.

    Siblings default to spans sharing ``(category, component)``
    (override with ``group_by``).  A span is a straggler when its
    modified z-score ``0.6745 · (d − median) / MAD`` exceeds
    ``threshold`` — the robust test that tolerates the heavy natural
    spread of task runtimes.  When the MAD is zero (siblings all equal)
    the relative test ``(d − median) / median > rel_threshold`` applies
    instead, so exactly-uniform groups can never produce a false
    positive.  Only *slow* outliers are reported.
    """
    q = _as_query(trace)
    matched = [
        s
        for s in q.spans(
            category=category, component=component, name=name, tags=tags
        )
        if s.end is not None
    ]
    groups: dict[tuple, list[Span]] = {}
    keyed = group_by or (lambda s: (s.category, s.component))
    for s in matched:
        groups.setdefault(keyed(s), []).append(s)

    out: list[Straggler] = []
    for key in sorted(groups, key=repr):
        members = groups[key]
        if len(members) < min_group:
            continue
        durations = [s.duration for s in members]
        med = _median(durations)
        mad = _median([abs(d - med) for d in durations])
        scale = 1.4826 * mad
        for s in members:
            excess = s.duration - med
            if excess <= max(min_excess_s, 0.0):
                continue
            if scale > 0:
                score = excess / scale
                if score <= threshold:
                    continue
            else:
                if med <= 0 or excess / med <= rel_threshold:
                    continue
                score = float("inf")
            out.append(
                Straggler(
                    span_id=s.span_id,
                    name=s.name,
                    category=s.category,
                    component=s.component,
                    duration=s.duration,
                    median=med,
                    mad=mad,
                    score=score,
                )
            )
    out.sort(key=lambda s: (-s.excess, s.span_id))
    return out


# -- idle-gap detection ----------------------------------------------------------


@dataclass(frozen=True)
class IdleGap:
    """A maximal interval where a busy series sat at/below the floor."""

    t0: float
    t1: float
    level: float  # the series' maximum value inside the gap

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "duration": self.duration,
            "level": self.level,
        }


def find_idle_gaps(
    series: Union[Gauge, UtilizationTracker],
    threshold: float = 0.0,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    min_duration: float = 0.0,
) -> list:
    """Maximal intervals of ``series <= threshold`` inside ``[t0, t1]``.

    ``series`` is a busy/concurrency step signal (a
    :class:`~repro.obs.metrics.Gauge`, or a
    :class:`~repro.obs.metrics.UtilizationTracker` whose ``.busy``
    gauge is used).  Holes in a node/core timeline show up here: a gap
    means the tracked capacity was doing nothing at all (or no more
    than ``threshold`` units) for the whole interval.  The window
    defaults to the series' own extent, and gaps are clipped to it.
    """
    gauge = series.busy if isinstance(series, UtilizationTracker) else series
    times, values = gauge.times, gauge.values
    if not times:
        return []
    lo = float(times[0] if t0 is None else t0)
    hi = float(times[-1] if t1 is None else t1)
    if hi <= lo:
        return []
    threshold = float(threshold)
    gaps = []
    open_at, worst = None, 0.0
    for i, (t, v) in enumerate(zip(times, values)):
        t, v = float(t), float(v)
        if t >= hi:
            break
        # Each change point holds its value until the next one (the
        # last one until the window end), clipped to the window.
        seg_lo = max(t, lo)
        seg_hi = min(float(times[i + 1]), hi) if i + 1 < len(times) else hi
        if seg_hi <= seg_lo:
            continue
        if v <= threshold:
            if open_at is None:
                open_at, worst = seg_lo, v
            else:
                worst = max(worst, v)
        elif open_at is not None:
            gaps.append(IdleGap(t0=open_at, t1=seg_lo, level=worst))
            open_at = None
    if open_at is not None:
        gaps.append(IdleGap(t0=open_at, t1=hi, level=worst))
    return [g for g in gaps if g.duration > min_duration]


# -- EnTK overhead decomposition -------------------------------------------------


@dataclass
class OverheadDecomposition:
    """The Fig-4 OVH/TTX split, refined into agent phases.

    Timeline slices (contiguous, summing to ``job_runtime``):

    - ``ovh`` — agent bootstrap (Fig 4's 85 s OVH).
    - ``ramp_up`` — bootstrap end until the executing concurrency
      first reaches its peak (launcher-bound).
    - ``steady`` — first to last moment at peak concurrency.
    - ``drain`` — falling off the plateau until the last task ends.
    - ``shutdown`` — last task end until the job ends.

    Queue statistics (per-task means, overlap across tasks):

    - ``mean_schedule_wait`` — submit → scheduled (scheduler-bound).
    - ``mean_launch_wait`` — scheduled → launched (launcher-bound).
    - ``mean_exec`` — launched → terminal.
    """

    component: str
    job_start: float
    job_end: float
    ovh: float
    ttx: float
    ramp_up: float
    steady: float
    drain: float
    shutdown: float
    peak_concurrency: float
    mean_schedule_wait: float
    mean_launch_wait: float
    mean_exec: float
    tasks: int

    @property
    def job_runtime(self) -> float:
        return self.job_end - self.job_start

    def slices(self) -> list:
        """``(label, seconds)`` pairs for a stacked OVH/TTX bar."""
        return [
            ("OVH", self.ovh),
            ("ramp-up", self.ramp_up),
            ("steady", self.steady),
            ("drain", self.drain),
            ("shutdown", self.shutdown),
        ]

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "job_runtime": self.job_runtime,
            "ovh": self.ovh,
            "ttx": self.ttx,
            "ramp_up": self.ramp_up,
            "steady": self.steady,
            "drain": self.drain,
            "shutdown": self.shutdown,
            "peak_concurrency": self.peak_concurrency,
            "mean_schedule_wait": self.mean_schedule_wait,
            "mean_launch_wait": self.mean_launch_wait,
            "mean_exec": self.mean_exec,
            "tasks": self.tasks,
        }


def pilot_components(trace: Union[Tracer, TraceQuery]) -> list:
    """Components that bootstrapped an EnTK agent, in trace order."""
    q = _as_query(trace)
    seen: list[str] = []
    for s in q.spans(category="entk.bootstrap"):
        if s.component not in seen:
            seen.append(s.component)
    return seen


def decompose_overheads(
    trace: Union[Tracer, TraceQuery],
    component: Optional[str] = None,
) -> OverheadDecomposition:
    """Split one pilot's job runtime into agent phases (see
    :class:`OverheadDecomposition`)."""
    q = _as_query(trace)
    if component is None:
        pilots = pilot_components(q)
        if len(pilots) != 1:
            raise ValueError(
                f"need an explicit component, trace has pilots {pilots}"
            )
        component = pilots[0]

    jobs = q.spans(category="rm.job", name=component)
    boots = q.spans(category="entk.bootstrap", component=component)
    if not boots:
        raise ValueError(f"no bootstrap span for component {component!r}")
    boot = boots[0]
    if jobs and jobs[0].end is not None:
        job_start, job_end = jobs[0].start, jobs[0].end
    else:
        # Trace without an rm.job container (agent driven directly):
        # fall back to the agent's own extent.
        job_start = boot.start
        job_end = max(
            s.end
            for s in q.spans(component=component)
            if s.end is not None
        )
    ovh = boot.duration or 0.0

    execs = [
        s
        for s in q.spans(category="entk.exec", component=component)
        if s.end is not None
    ]
    conc = q.concurrency(
        category="entk.exec", component=component, t0=job_start
    )
    peak = conc.peak
    peak_times = [
        t for t, v in zip(conc.times, conc.values) if v >= peak and peak > 0
    ]
    boot_end = boot.end if boot.end is not None else job_start + ovh
    first_peak = peak_times[0] if peak_times else boot_end
    last_peak = peak_times[-1] if peak_times else boot_end
    last_exec_end = max((s.end for s in execs), default=boot_end)

    pendings = [
        s
        for s in q.spans(category="entk.pending", component=component)
        if s.end is not None
    ]
    span_by_id = {s.span_id: s for s in q.tracer.spans}
    schedule_waits = [
        p.start - span_by_id[p.parent_id].start
        for p in pendings
        if p.parent_id in span_by_id
    ]
    launch_waits = [p.duration for p in pendings]
    exec_durations = [s.duration for s in execs]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return OverheadDecomposition(
        component=component,
        job_start=job_start,
        job_end=job_end,
        ovh=ovh,
        ttx=job_end - boot_end,
        ramp_up=max(0.0, first_peak - boot_end),
        steady=max(0.0, last_peak - first_peak),
        drain=max(0.0, last_exec_end - last_peak),
        shutdown=max(0.0, job_end - last_exec_end),
        peak_concurrency=peak,
        mean_schedule_wait=mean(schedule_waits),
        mean_launch_wait=mean(launch_waits),
        mean_exec=mean(exec_durations),
        tasks=len({s.parent_id for s in execs if s.parent_id is not None})
        or len(execs),
    )
