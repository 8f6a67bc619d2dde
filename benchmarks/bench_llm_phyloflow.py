"""E8 — LLM function-calling executes Phyloflow end to end (§2.1).

The paper's demonstration: a natural-language instruction, a set of
JSON function descriptions for the Parsl-app adapters, and an iterated
chat loop that chains AppFuture IDs across calls until the stop flag.
We verify the full four-step pipeline runs in dependency order from a
single sentence, the ID-binding scheme round-trips, the error-
forwarding loop recovers from an injected failure, and the produced
phylogeny is scientifically coherent (recovers the planted clones).
"""

from repro.report.scenarios import PHYLOFLOW_STEPS, SCENARIOS
from repro.viz import render_table


def test_llm_phyloflow_pipeline(benchmark, report, verdict):
    # The first driver run, then the error-forwarding run with one
    # injected transient failure.
    e8 = SCENARIOS["E8"]
    (outcome, tracer), recovery_run = benchmark.pedantic(
        lambda: (e8.trace("full"), e8.extra("full")), rounds=1, iterations=1
    )
    (result, tree), (recovery, tree2) = outcome, recovery_run

    table = render_table(
        ["metric", "paper behaviour", "measured"],
        [
            ["steps executed", "all 4, in order",
             " -> ".join(n.split("_from")[0] for n in result.calls_made())],
            ["API round-trips", "1 per step + stop", str(result.api_calls)],
            ["futures registered", "1 per step", str(len(result.future_ids))],
            ["stop flag honoured", "yes", str(result.stopped)],
            ["clones recovered", "3 (planted)", str(tree["n_clones"])],
            ["phylogeny confidence", "-", f"{tree['confidence']:.2f}"],
            ["errors forwarded & recovered", "future work -> works",
             f"{len(recovery.errors)} error, retried, "
             f"{tree2['n_clones']} clones"],
        ],
    )
    report("E8_llm_phyloflow", "E8: NL-driven Phyloflow execution\n\n" + table)

    assert result.calls_made() == PHYLOFLOW_STEPS
    assert result.api_calls == 5
    assert result.stopped and not result.errors
    assert tree["n_clones"] == 3
    assert tree["confidence"] > 0.5
    assert len(tree["edges"]) == 2
    # Recovery run: one forwarded error, pipeline still completes.
    assert len(recovery.errors) == 1
    assert recovery.calls_made().count("pyclone_vi_from_futures") == 2
    assert tree2["n_clones"] == 3

    rep = verdict(e8.report(e8.scales["full"], True, outcome, tracer, recovery_run))
    assert rep.ok
