"""E1 — CWS workflow-aware scheduling vs FIFO (§3.5).

Paper claim: "the CWSI can reduce makespan up to 25% with simple
workflow-aware strategies"; "rank and file size [...] achieve an
average runtime reduction of 10.8%".

This bench runs the five-class workflow mix over the registry's
``full`` seeds (0, 1, 2; ``repro.report.scenarios``) on the
heterogeneous testbed, under FIFO / rank / filesize / predictive-HEFT,
and reports per-strategy mean and max makespan reductions.  The
registry's E1 report judges the run, with the largest workflow of the
mix traced under ``rank``.
"""

from repro.cws.experiment import STRATEGIES, summarize
from repro.report.scenarios import SCENARIOS
from repro.viz import render_table


def test_cws_makespan_reduction(benchmark, report, verdict):
    e1 = SCENARIOS["E1"]
    rows, (outcome, tracer) = benchmark.pedantic(
        lambda: (e1.extra("full"), e1.trace("full")), rounds=1, iterations=1
    )
    summary = summarize(rows)

    table_rows = []
    for strategy, stats in summary["per_strategy"].items():
        table_rows.append(
            [
                strategy,
                f"{stats['mean_reduction'] * 100:6.1f}%",
                f"{stats['max_reduction'] * 100:6.1f}%",
                f"{stats['min_reduction'] * 100:6.1f}%",
                f"{stats['wins']}/{stats['n']}",
            ]
        )
    detail = render_table(
        ["workflow", *STRATEGIES],
        [
            [r.workflow] + [f"{m:8.0f}s" for m in r.makespans]
            for r in rows
        ],
    )
    text = (
        "E1: makespan reduction vs workflow-blind FIFO "
        "(paper: avg 10.8%, up to 25%)\n\n"
        + render_table(
            ["strategy", "mean", "max", "min", "wins"], table_rows
        )
        + "\n\nper-workflow makespans:\n"
        + detail
    )
    report("E1_cws_makespan", text)

    # Shape assertions: workflow-aware wins on average, in the paper's
    # magnitude band.
    for strategy in ("rank", "filesize"):
        stats = summary["per_strategy"][strategy]
        assert 0.05 <= stats["mean_reduction"] <= 0.30
        assert 0.15 <= stats["max_reduction"] <= 0.40
        assert stats["wins"] >= stats["n"] * 0.7

    rep = verdict(e1.report(e1.scales["full"], True, outcome, tracer, rows))
    assert rep.ok
