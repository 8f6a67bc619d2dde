"""Run profiles: the quantities Figs 4 and 5 report.

:meth:`RunProfile.from_agent` reads them from the live
:class:`PilotAgent`'s monitors at the end of a simulated run.  The
agent registers those monitors with the tracer's metrics registry, so
a trace carries the same series; the trace-side Fig 4 numbers come
from :func:`repro.obs.analyze.decompose_overheads`, and the E2/E3
benchmarks assert that the trace-derived concurrency curves equal
these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.entk.agent import PilotAgent
from repro.obs.metrics import Gauge


@dataclass
class RunProfile:
    """Fig-4/Fig-5 measurements for one pilot job.

    - ``ovh`` — agent bootstrap overhead (Fig 4 "OVH", 85 s on Frontier).
    - ``ttx`` — total execution span after bootstrap (Fig 4 "TTX").
    - ``job_runtime`` — batch job wall time (≈ ovh + ttx).
    - ``utilization`` — busy core-seconds / (capacity × job span).
    - throughputs — initial slopes of Fig 5's curves.
    """

    job_runtime: float
    ovh: float
    ttx: float
    core_utilization: float
    gpu_utilization: Optional[float]
    scheduling_throughput: float
    launch_throughput: float
    peak_concurrency: float
    tasks_done: int
    tasks_failed_events: int
    concurrency_series: tuple = field(default=(), repr=False)
    pending_series: tuple = field(default=(), repr=False)

    @classmethod
    def from_agent(
        cls,
        agent: PilotAgent,
        job_start: float,
        job_end: float,
        throughput_horizon_s: Optional[float] = None,
    ) -> "RunProfile":
        executing = agent.executing
        ovh = agent.bootstrap_overhead or 0.0
        boot_end = job_start + ovh
        if throughput_horizon_s is None:
            throughput_horizon_s = _default_horizon(executing, boot_end, job_end)
        times_c, values_c = executing.resample(n=400, t_end=job_end)
        times_p, values_p = agent.pending_launch.resample(n=400, t_end=job_end)
        return cls(
            job_runtime=job_end - job_start,
            ovh=ovh,
            ttx=job_end - boot_end,
            core_utilization=agent.core_util.utilization(job_start, job_end),
            gpu_utilization=(
                agent.gpu_util.utilization(job_start, job_end)
                if agent.gpu_util
                else None
            ),
            scheduling_throughput=(
                agent.scheduled_cum.value_at(boot_end + throughput_horizon_s)
                / throughput_horizon_s
            ),
            launch_throughput=(
                agent.launched_cum.value_at(boot_end + throughput_horizon_s)
                / throughput_horizon_s
            ),
            peak_concurrency=executing.peak,
            tasks_done=int(agent.done_count.current),
            tasks_failed_events=len(agent.failures),
            concurrency_series=(tuple(times_c), tuple(values_c)),
            pending_series=(tuple(times_p), tuple(values_p)),
        )

    def summary_lines(self) -> list:
        """Human-readable Fig-4-style summary."""
        lines = [
            f"job runtime : {self.job_runtime:9.0f} s",
            f"OVH         : {self.ovh:9.0f} s",
            f"TTX         : {self.ttx:9.0f} s",
            f"core util   : {self.core_utilization * 100:8.1f} %",
        ]
        if self.gpu_utilization is not None:
            lines.append(f"gpu util    : {self.gpu_utilization * 100:8.1f} %")
        lines += [
            f"sched rate  : {self.scheduling_throughput:9.1f} tasks/s",
            f"launch rate : {self.launch_throughput:9.1f} tasks/s",
            f"peak conc.  : {self.peak_concurrency:9.0f} tasks",
            f"done/failed : {self.tasks_done}/{self.tasks_failed_events}",
        ]
        return lines


def _default_horizon(executing: Gauge, boot_end: float, job_end: float) -> float:
    """Measure initial slopes inside the launch ramp: from bootstrap end
    until the executing curve first reaches its peak (the Fig 5
    "initial slopes")."""
    peak = executing.peak
    t_peak = next(
        (t for t, v in zip(executing.times, executing.values) if v >= peak),
        job_end,
    )
    return max(1.0, 0.9 * (t_peak - boot_end))

