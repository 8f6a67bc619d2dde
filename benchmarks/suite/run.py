"""Entry point of the benchmark suite; run from the repository root.

    python3 benchmarks/suite/run.py                      # all four workloads
    python3 benchmarks/suite/run.py --workload cws_grid --seed 3
    python3 benchmarks/suite/run.py --trace 1            # per-layer metrics
    python3 benchmarks/suite/run.py compare --base A*.json --change B*.json

``python -m benchmarks.suite`` is the same command.  The program under
test is imported from this checkout's ``src/``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent


def entry() -> int:
    # Single-threaded numeric libraries: set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if sys.path and Path(sys.path[0] or ".").resolve() == SUITE:
        sys.path.pop(0)  # script mode: keep the suite's modules out of the top level
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        print(f"benchmark: cannot import repro from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"benchmark: repro resolved to {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from benchmarks.suite.harness import main

    return main()


if __name__ == "__main__":
    sys.exit(entry())
