"""Resource managers: the infrastructure side of the CWSI boundary.

The paper's §3 problem statement: workflow management systems talk to
*resource managers* (SLURM, Kubernetes, OpenPBS, Flux...) through
inconsistent interfaces that drop workflow context.  This package
implements the resource-manager side:

- :class:`BatchScheduler` — an HPC batch system granting whole nodes to
  jobs with walltime limits, FIFO + EASY backfill and afterok
  dependencies (the SLURM/LSF role for EnTK pilots and JAWS HTCondor
  pools).
- :class:`KubeScheduler` — a pod-granularity bin-packing scheduler with
  a pluggable prioritization/placement strategy — the extension point
  where :mod:`repro.cws` installs workflow-aware scheduling.

Both are policies over one placement core,
:class:`~repro.rm.base.SchedulerCore`: the coalesced wake, the
per-pass negative-fit rule, the quarantine avoid-set and the
submit/retire bookkeeping.  Both managers are workflow-*blind* by
default: they see opaque jobs and pods.  Everything the CWSI adds (DAG
edges, input sizes, predictions) arrives through the strategy hooks.
"""

from repro.rm.base import (
    Job,
    JobFailed,
    JobState,
    ResourceRequest,
    WalltimeExceeded,
)
from repro.rm.batch import BatchScheduler
from repro.rm.kube import KubeScheduler, Pod, PodFailed, SchedulingStrategy, FifoStrategy

__all__ = [
    "BatchScheduler",
    "FifoStrategy",
    "Job",
    "JobFailed",
    "JobState",
    "KubeScheduler",
    "Pod",
    "PodFailed",
    "ResourceRequest",
    "SchedulingStrategy",
    "WalltimeExceeded",
]
