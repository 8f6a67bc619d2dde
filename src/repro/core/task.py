"""Task specifications: the unit a WMS submits to a resource manager."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.data.files import File


@dataclass(frozen=True)
class TaskSpec:
    """A resource-annotated workflow task.

    Exactly the information the CWSI carries across the WMS/RM boundary
    (§3.1): resource requests (CPU, memory), input files, and
    task-specific parameters.

    Parameters
    ----------
    name:
        Unique within its workflow.
    runtime_s:
        Nominal runtime on a speed-1.0 node.  Schedulers must treat this
        as *unknown* unless a predictor supplies an estimate — the
        experiment harness uses it as ground truth.
    inputs:
        Logical names of files consumed.  Dependencies are inferred by
        matching against other tasks' outputs.
    outputs:
        Files produced (name + size — sizes feed the CWS ``filesize``
        strategy).
    params:
        Task-specific tool parameters passed through the CWSI.
    """

    name: str
    runtime_s: float
    cores: int = 1
    gpus: int = 0
    memory_gb: float = 1.0
    inputs: tuple = ()
    outputs: tuple = ()
    params: tuple = ()
    labels: tuple = ()
    #: The task's *actual* peak memory (what monitoring would observe).
    #: ``memory_gb`` above is the user's request; scientists habitually
    #: over-request, which is what predictor-driven right-sizing (§3.4)
    #: corrects.  ``None`` means the request is honest.
    peak_memory_gb: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("Task name must be non-empty")
        if self.runtime_s < 0:
            raise ValueError(f"runtime_s must be >= 0, got {self.runtime_s}")
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")
        if self.gpus < 0 or self.memory_gb < 0:
            raise ValueError("gpus/memory must be non-negative")
        if self.peak_memory_gb is not None and self.peak_memory_gb <= 0:
            raise ValueError("peak_memory_gb must be positive when set")
        for out in self.outputs:
            if not isinstance(out, File):
                raise TypeError(f"outputs must be File instances, got {out!r}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    @property
    def output_names(self) -> tuple:
        return tuple(f.name for f in self.outputs)

    @property
    def output_bytes(self) -> int:
        return sum(f.size_bytes for f in self.outputs)

    @property
    def true_peak_memory_gb(self) -> float:
        """What monitoring observes: the declared peak, else the request."""
        return self.peak_memory_gb if self.peak_memory_gb is not None else self.memory_gb

    def replace(self, **changes) -> "TaskSpec":
        """Functional update (frozen dataclass helper)."""
        from dataclasses import replace as _replace

        return _replace(self, **changes)

    def __repr__(self) -> str:
        return (
            f"TaskSpec({self.name!r}, {self.runtime_s}s, {self.cores}c"
            + (f", {self.gpus}g" if self.gpus else "")
            + f", {self.memory_gb:g}GiB)"
        )
