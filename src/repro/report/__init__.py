"""Unified run reports: one trace in, ASCII + JSON verdict out.

A :class:`RunReport` bundles everything a benchmark needs to explain
its own figure:

- headline scalar metrics (the numbers the paper's tables print),
- the critical-path phase decomposition (:mod:`repro.obs.analyze`),
- the EnTK OVH/TTX overhead split when the trace has a pilot,
- stragglers and idle gaps,
- SLO rule outcomes (:mod:`repro.obs.alerts`).

:func:`build_report` assembles one from a tracer (or from bare
scalars when a scenario has no discrete-event trace, like the LLM
pipeline), :meth:`RunReport.render_ascii` renders it with
:mod:`repro.viz.ascii_charts`, and :func:`write_verdict` emits the
machine-readable ``BENCH_<id>.json`` that CI consumes — WfBench's
"benchmarks must produce machine-readable verdicts" made concrete.

``python -m repro.report`` (see :mod:`repro.report.__main__`) drives
the same machinery from the command line over a JSONL trace or a
named E1–E8 benchmark scenario.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.obs.alerts import AlertReport, Rule, evaluate_rules
from repro.obs.analyze import (
    CriticalPath,
    OverheadDecomposition,
    critical_path,
    decompose_overheads,
    find_idle_gaps,
    find_stragglers,
    pilot_components,
)
from repro.obs.query import TraceQuery
from repro.obs.tracer import Tracer
from repro.resilience.slo import resilience_context, stock_resilience_rules
from repro.viz import render_stacked_bar, render_table

#: Schema version of the BENCH_<id>.json verdict documents.
VERDICT_VERSION = 1


@dataclass
class RunReport:
    """Everything one benchmark run says about itself."""

    bench_id: str
    title: str = ""
    headline: dict = field(default_factory=dict)
    critical_path: Optional[CriticalPath] = None
    overheads: Optional[OverheadDecomposition] = None
    stragglers: list = field(default_factory=list)
    idle_gaps: list = field(default_factory=list)
    alert_report: Optional[AlertReport] = None
    window: Optional[tuple] = None  # (t0, t1) the analyses cover
    notes: list = field(default_factory=list)

    # -- verdict --------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """False only when a critical alert is left firing."""
        return self.alert_report is None or self.alert_report.ok

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_verdict(self) -> dict:
        """The machine-readable ``BENCH_<id>.json`` document."""
        doc = {
            "version": VERDICT_VERSION,
            "bench": self.bench_id,
            "title": self.title,
            "status": self.status,
            "headline": _json_scalars(self.headline),
            "alerts": (
                self.alert_report.to_dict()
                if self.alert_report is not None
                else {"ok": True, "rules": []}
            ),
        }
        if self.window is not None:
            doc["window"] = list(self.window)
        if self.critical_path is not None:
            cp = self.critical_path
            doc["critical_path"] = {
                "makespan": cp.makespan,
                "phase_totals": cp.phase_totals(),
                "blame": cp.blame(),
                "segments": len(cp.segments),
                "longest": [s.to_dict() for s in cp.longest_segments(5)],
            }
        if self.overheads is not None:
            doc["overheads"] = self.overheads.to_dict()
        if self.stragglers:
            doc["stragglers"] = [s.to_dict() for s in self.stragglers[:10]]
            doc["straggler_count"] = len(self.stragglers)
        if self.idle_gaps:
            doc["idle_gaps"] = [g.to_dict() for g in self.idle_gaps[:10]]
            doc["idle_total_s"] = sum(g.duration for g in self.idle_gaps)
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc

    # -- rendering ------------------------------------------------------------

    def render_ascii(self) -> str:
        """Terminal rendering: headline, phases, overheads, alerts."""
        blocks = []
        header = f"run report — {self.bench_id}"
        if self.title:
            header += f": {self.title}"
        blocks.append(header)
        blocks.append("=" * min(len(header), 78))

        if self.headline:
            rows = [[k, _fmt(v)] for k, v in self.headline.items()]
            blocks.append("headline metrics:\n" + render_table(["metric", "value"], rows))

        if self.critical_path is not None:
            cp = self.critical_path
            totals = cp.phase_totals()
            if totals and cp.makespan > 0:
                rows = [
                    [phase, f"{seconds:,.1f} s", f"{cp.blame()[phase] * 100:5.1f} %"]
                    for phase, seconds in totals.items()
                ]
                blocks.append(
                    "critical path — where the makespan went "
                    f"({cp.makespan:,.1f} s over {len(cp.segments)} segments):\n"
                    + render_table(["phase", "time", "blame"], rows)
                    + "\n"
                    + render_stacked_bar(list(totals.items()), total=cp.makespan)
                )

        if self.overheads is not None:
            od = self.overheads
            rows = [
                ["job runtime", f"{od.job_runtime:,.1f} s"],
                ["OVH (bootstrap)", f"{od.ovh:,.1f} s"],
                ["TTX", f"{od.ttx:,.1f} s"],
                ["ramp-up", f"{od.ramp_up:,.1f} s"],
                ["steady state", f"{od.steady:,.1f} s"],
                ["drain", f"{od.drain:,.1f} s"],
                ["shutdown", f"{od.shutdown:,.1f} s"],
                ["mean schedule wait", f"{od.mean_schedule_wait:,.2f} s"],
                ["mean launch wait", f"{od.mean_launch_wait:,.2f} s"],
                ["mean exec", f"{od.mean_exec:,.1f} s"],
            ]
            block = f"overhead decomposition ({od.component}):\n" + render_table(
                ["slice", "value"], rows
            )
            if od.job_runtime > 0:
                block += "\n" + render_stacked_bar(od.slices(), total=od.job_runtime)
            blocks.append(block)

        if self.stragglers:
            rows = [
                [
                    s.name,
                    s.category,
                    f"{s.duration:,.1f} s",
                    f"{s.median:,.1f} s",
                    "inf" if s.score == float("inf") else f"{s.score:.1f}",
                ]
                for s in self.stragglers[:8]
            ]
            blocks.append(
                f"stragglers ({len(self.stragglers)} flagged):\n"
                + render_table(["span", "category", "duration", "sibling median", "score"], rows)
            )

        if self.idle_gaps:
            total = sum(g.duration for g in self.idle_gaps)
            rows = [
                [f"{g.t0:,.1f}", f"{g.t1:,.1f}", f"{g.duration:,.1f} s"]
                for g in self.idle_gaps[:8]
            ]
            blocks.append(
                f"idle gaps ({len(self.idle_gaps)}, {total:,.1f} s total):\n"
                + render_table(["from", "to", "duration"], rows)
            )

        if self.alert_report is not None:
            blocks.append(
                "SLO rules:\n"
                + render_table(
                    ["rule", "severity", "verdict", "value", "expr"],
                    self.alert_report.summary_rows(),
                )
            )

        blocks.append(f"verdict: {self.status.upper()}")
        return "\n\n".join(blocks)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.4g}"
    return str(value)


def _json_scalars(mapping: dict) -> dict:
    out = {}
    for k, v in mapping.items():
        if hasattr(v, "item"):  # numpy scalar
            v = v.item()
        out[str(k)] = v
    return out


def build_report(
    bench_id: str,
    tracer: Optional[Tracer] = None,
    title: str = "",
    headline: Optional[dict] = None,
    rules: Sequence[Rule] = (),
    window: Optional[tuple] = None,
    component: Optional[str] = None,
    phase_of: Optional[Callable] = None,
    deps: Optional[dict] = None,
    straggler_category: Optional[str] = None,
    straggler_group_by: Optional[Callable] = None,
    idle_metric: Optional[tuple] = None,
    record_alerts: bool = True,
    notes: Sequence[str] = (),
    stream: bool = False,
) -> RunReport:
    """Assemble a :class:`RunReport`.

    With a ``tracer``, the critical path is extracted over ``window``
    (default: the pilot job's interval when there is exactly one,
    otherwise the whole trace), overheads are decomposed when an EnTK
    pilot is present, stragglers are hunted in ``straggler_category``
    (default: the busiest leaf category) among siblings keyed by
    ``straggler_group_by`` (default: category and component), idle
    gaps are read from the registry metric named by
    ``idle_metric=(component, name)`` when given, and ``rules`` are
    evaluated on simulated time with the headline scalars as context.
    Without a tracer, only headline metrics and scalar rules are
    evaluated.

    ``stream=True`` marks a trace read back by the compact JSONL
    reader (:class:`~repro.obs.stream.StubTrace`); any tracer is
    analysed as it is.  Such a trace keeps only each span's ``state``
    tag, so dependency-aware critical paths (``deps``) are rejected
    with it.
    """
    if stream and deps is not None:
        raise ValueError(
            "stream mode drops span tags; dependency-aware critical "
            "paths (deps=...) need the batch path"
        )
    headline = dict(headline or {})
    query = TraceQuery(tracer) if tracer is not None else None

    cp = None
    overheads = None
    stragglers: list = []
    idle_gaps: list = []

    if query is not None:
        if window is None:
            jobs = [
                s
                for s in query.spans(category="rm.job")
                if s.end is not None
            ]
            if component is not None:
                jobs = [s for s in jobs if s.name == component]
            if len(jobs) == 1:
                window = (jobs[0].start, jobs[0].end)
        cp = critical_path(
            query,
            t0=window[0] if window else None,
            t1=window[1] if window else None,
            phase_of=phase_of,
            deps=deps,
        )
        window = (cp.t0, cp.t1)

        pilots = pilot_components(query)
        target = component if component is not None else (
            pilots[0] if len(pilots) == 1 else None
        )
        if target is not None and target in pilots:
            overheads = decompose_overheads(query, component=target)
            headline.setdefault("ovh_s", overheads.ovh)
            headline.setdefault("ttx_s", overheads.ttx)
            headline.setdefault("job_runtime_s", overheads.job_runtime)
            # The agent's capacity trackers ride along in the registry;
            # surface them as scalars so utilization rules work on a
            # bare reloaded trace.
            for metric_name, key in (
                ("cores", "core_utilization"),
                ("gpus", "gpu_utilization"),
            ):
                try:
                    util = tracer.metrics.get(metric_name, component=target)
                except KeyError:
                    continue
                headline.setdefault(
                    key,
                    util.utilization(overheads.job_start, overheads.job_end),
                )

        if straggler_category is None:
            leaf_counts = query.category_counts(
                exclude=("rm.job", "kernel.process", "obs.alert")
            )
            if leaf_counts:
                straggler_category = max(
                    sorted(leaf_counts), key=lambda c: leaf_counts[c]
                )
        if straggler_category:
            stragglers = find_stragglers(
                query, category=straggler_category, group_by=straggler_group_by
            )

        if idle_metric is not None:
            comp, name = idle_metric
            try:
                metric = tracer.metrics.get(name, component=comp)
            except KeyError:
                metric = None
            if metric is not None:
                idle_gaps = find_idle_gaps(
                    metric,
                    t0=window[0] if window else None,
                    t1=window[1] if window else None,
                )

    alert_report = None
    if rules:
        alert_report = evaluate_rules(
            list(rules),
            trace=tracer,
            context=headline,
            record=record_alerts,
        )

    return RunReport(
        bench_id=bench_id,
        title=title,
        headline=headline,
        critical_path=cp,
        overheads=overheads,
        stragglers=stragglers,
        idle_gaps=idle_gaps,
        alert_report=alert_report,
        window=window,
        notes=list(notes),
    )


def write_verdict(
    report: RunReport, out_dir: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write ``BENCH_<id>.json`` under ``out_dir``; returns the path."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{report.bench_id}.json"
    path.write_text(
        json.dumps(report.to_verdict(), indent=2, sort_keys=True) + "\n"
    )
    return path


__all__ = [
    "RunReport",
    "build_report",
    "resilience_context",
    "stock_resilience_rules",
    "write_verdict",
    "Rule",
    "VERDICT_VERSION",
]
