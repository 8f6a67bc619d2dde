"""The committed E1–E8 verdicts are the registry's, byte for byte.

``benchmarks/results/BENCH_<id>.json`` has one builder,
``Scenario.report``: the bench suite and ``python -m repro.report
--bench <id> --full`` both write it.  A committed file that differs
from a fresh paper-scale run was written by something else, or is
stale.
"""

import json
import pathlib

import pytest

from repro.report.scenarios import SCENARIOS

RESULTS_DIR = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"


@pytest.mark.parametrize("bench_id", sorted(SCENARIOS))
def test_committed_verdict_is_the_registry_report(bench_id):
    verdict = SCENARIOS[bench_id].run(full=True).to_verdict()
    expected = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
    committed = (RESULTS_DIR / f"BENCH_{bench_id}.json").read_text()
    assert committed == expected
