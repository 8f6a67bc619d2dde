"""LLM-driven workflow composition (§2): Phyloflow from one sentence.

Part 1 (§2.1): the function-calling prototype — a natural-language
instruction, JSON function schemas for the Parsl-app adapters, and the
iterated chat loop chaining AppFuture IDs until the stop flag.

Part 2 (Fig 1): the planner/executor/debugger agent engine, shown
recovering from an injected transient failure and escalating an
unrecoverable one to the human operator.

The hosted LLM is substituted by a deterministic rule-based function-
calling model (see DESIGN.md); everything else — adapters, ID binding,
error forwarding, the Phyloflow science — is real.

Run: ``python examples/llm_workflow.py``
"""

import json

from repro.llm import (
    AgentWorkflowEngine,
    ChatWorkflowDriver,
    Debugger,
    MockFunctionCallingLLM,
    PhyloflowAdapters,
    make_synthetic_vcf,
)
from repro.resilience import TRANSIENT_ONLY, RetryPolicy


def part1_function_calling(vcf: str) -> None:
    print("=" * 64)
    print("Part 1  -  OpenAI-style function calling (§2.1)")
    print("=" * 64)
    adapters = PhyloflowAdapters(files={"tumor.vcf": vcf})
    print("\nadvertised functions:")
    for schema in adapters.schemas():
        print("  " + json.loads(schema.to_json())["name"])

    driver = ChatWorkflowDriver(MockFunctionCallingLLM(), adapters)
    instruction = (
        "Run the full phyloflow pipeline on tumor.vcf and build the "
        "phylogeny with 3 clusters."
    )
    print(f'\nuser: "{instruction}"\n')
    result = driver.run(instruction)
    for msg in result.transcript[2:]:
        if msg.role == "assistant" and msg.function_call:
            args = dict(msg.function_call.arguments)
            print(f"  assistant -> call {msg.function_call.name}({args})")
        elif msg.role == "user":
            print(f"  user      -> {msg.content}")
        elif msg.role == "assistant":
            print(f"  assistant -> {msg.content}")
    tree = driver.final_value(result)
    print(f"\nphylogeny: {tree['n_clones']} clones, "
          f"confidence {tree['confidence']:.2f}")
    for edge in tree["edges"]:
        print(f"  clone {edge['parent']} -> clone {edge['child']}")


def part2_agents(vcf: str) -> None:
    print("\n" + "=" * 64)
    print("Part 2  -  planner / executor / debugger agents (Fig 1)")
    print("=" * 64)

    # A transient failure the debugger can retry through.
    adapters = PhyloflowAdapters(files={"tumor.vcf": vcf})
    adapters.inject_failure("pyclone_vi_from_futures", times=2)
    debugger = Debugger(RetryPolicy(max_retries=3, retry_on=TRANSIENT_ONLY))
    engine = AgentWorkflowEngine(adapters, debugger=debugger)
    report = engine.run("Build the phylogeny for tumor.vcf with 3 clusters")
    print("\nscenario A: transient executor failures (debugger retries)")
    for outcome in report.outcomes:
        print(f"  {outcome.step.function:<32} {outcome.status:<8} "
              f"attempts={outcome.attempts}")
    print(f"  => succeeded={report.succeeded}, "
          f"human involved={report.escalated_to_human}")

    # An unrecoverable failure: the debugger escalates to the human.
    adapters2 = PhyloflowAdapters(files={"tumor.vcf": vcf})
    adapters2.inject_failure("spruce_format_from_futures", times=99)

    def operator(outcome, reason):
        print(f"  [human] asked about {outcome.step.function}: {reason!r} "
              "-> abort")
        return "abort"

    engine2 = AgentWorkflowEngine(
        adapters2,
        debugger=Debugger(RetryPolicy(max_retries=1, retry_on=TRANSIENT_ONLY)),
        human=operator,
    )
    report2 = engine2.run("Build the phylogeny for tumor.vcf")
    print("\nscenario B: persistent failure (escalates to the human)")
    print(f"  => succeeded={report2.succeeded}, "
          f"human involved={report2.escalated_to_human}")


def part3_hierarchy(vcf: str) -> None:
    print("\n" + "=" * 64)
    print("Part 3  -  hierarchical decomposition (the token-limit fix)")
    print("=" * 64)
    from repro.llm import (
        ContextLimitExceeded,
        HierarchicalChatDriver,
    )

    instruction = (
        "Run the full phyloflow pipeline on tumor.vcf with 3 clusters "
        "and build the phylogeny."
    )
    flat_llm = MockFunctionCallingLLM()
    flat = ChatWorkflowDriver(flat_llm, PhyloflowAdapters(files={"tumor.vcf": vcf}))
    flat.run(instruction)
    hier = HierarchicalChatDriver(PhyloflowAdapters(files={"tumor.vcf": vcf}))
    hier_result = hier.run(instruction)
    print(f"\nflat peak prompt:         {flat_llm.max_prompt_tokens} tokens")
    print(f"hierarchical peak prompt: {hier_result.peak_prompt_tokens} tokens "
          f"(1 top session + {len(hier_result.sub_results)} sub-sessions)")

    limit = (hier_result.peak_prompt_tokens + flat_llm.max_prompt_tokens) // 2
    print(f"\nwith a {limit}-token context window:")
    try:
        ChatWorkflowDriver(
            MockFunctionCallingLLM(context_limit_tokens=limit),
            PhyloflowAdapters(files={"tumor.vcf": vcf}),
        ).run(instruction)
        print("  flat:         completed (unexpected)")
    except ContextLimitExceeded as exc:
        print(f"  flat:         ContextLimitExceeded ({exc.tokens} tokens)")
    constrained = HierarchicalChatDriver(
        PhyloflowAdapters(files={"tumor.vcf": vcf}),
        llm_factory=lambda: MockFunctionCallingLLM(context_limit_tokens=limit),
    )
    result = constrained.run(instruction)
    tree = constrained.final_value(result)
    print(f"  hierarchical: completed, {tree['n_clones']} clones, "
          f"confidence {tree['confidence']:.2f}")


def main() -> None:
    vcf = make_synthetic_vcf(n_mutations=90, n_clones=3, depth=500, seed=11)
    part1_function_calling(vcf)
    part2_agents(vcf)
    part3_hierarchy(vcf)


if __name__ == "__main__":
    main()
