"""The Fig 4/5 quantities of a :class:`RunProfile` built from the agent.

``from_agent`` reads the live agent's monitors at the end of the run.
The trace-side numbers come from ``repro.obs.analyze``; the E2/E3
benchmarks assert that they equal the live monitors.
"""

import pytest

from tests.obs.minirun import mini_entk_run


def test_fig4_values():
    p, _ = mini_entk_run()
    assert p.ovh == pytest.approx(85.0)        # Fig 4 bootstrap OVH
    assert p.job_runtime == pytest.approx(p.ovh + p.ttx)
    assert p.core_utilization > 0.85
    assert p.tasks_done == 400
    assert p.tasks_failed_events == 0
    assert p.peak_concurrency == 50
