"""Tests for the function-calling loop (§2.1) and Fig 1 agents."""

import pytest

from repro.llm import (
    AgentWorkflowEngine,
    ChatWorkflowDriver,
    Debugger,
    MockFunctionCallingLLM,
    PhyloflowAdapters,
    Planner,
    make_synthetic_vcf,
)
from repro.llm.adapters import AdapterError
from repro.llm.protocol import FunctionCall, FunctionSchema, Message
from repro.resilience import TRANSIENT_ONLY, RetryPolicy


def transient_debugger(retries):
    return Debugger(RetryPolicy(max_retries=retries, retry_on=TRANSIENT_ONLY))


VCF = make_synthetic_vcf(n_mutations=60, n_clones=3, depth=500, seed=7)
PIPELINE_ORDER = [
    "vcf_transform_from_file",
    "pyclone_vi_from_futures",
    "spruce_format_from_futures",
    "spruce_phylogeny_from_futures",
]


def make_adapters(**kw):
    return PhyloflowAdapters(files={"tumor.vcf": VCF}, **kw)


class TestProtocolTypes:
    def test_schema_validation(self):
        with pytest.raises(ValueError):
            FunctionSchema(name="", description="x")
        with pytest.raises(ValueError):
            FunctionSchema(
                name="f", description="x", parameters=(), required=("ghost",)
            )

    def test_schema_json(self):
        import json

        s = FunctionSchema(
            name="f",
            description="d",
            parameters=(("a", (("type", "string"),)),),
            required=("a",),
        )
        j = json.loads(s.to_json())
        assert j["name"] == "f"
        assert j["parameters"]["required"] == ["a"]

    def test_message_role_validation(self):
        with pytest.raises(ValueError):
            Message(role="wizard")

    def test_function_call_make(self):
        c = FunctionCall.make("f", b=2, a=1)
        assert c.kwargs == {"a": 1, "b": 2}


class TestAdapters:
    def test_dispatch_chain_by_ids(self):
        adapters = make_adapters()
        fid1 = adapters.dispatch(
            FunctionCall.make("vcf_transform_from_file", vcf_file="tumor.vcf")
        )
        fid2 = adapters.dispatch(
            FunctionCall.make(
                "pyclone_vi_from_futures", mutations_future_id=fid1, n_clusters=3
            )
        )
        fid3 = adapters.dispatch(
            FunctionCall.make("spruce_format_from_futures", clusters_future_id=fid2)
        )
        fid4 = adapters.dispatch(
            FunctionCall.make("spruce_phylogeny_from_futures", spruce_future_id=fid3)
        )
        tree = adapters.resolve(fid4)
        assert tree["n_clones"] == 3

    def test_unknown_function(self):
        with pytest.raises(AdapterError):
            make_adapters().dispatch(FunctionCall.make("rm_rf_slash"))

    def test_missing_file(self):
        with pytest.raises(AdapterError, match="no such file"):
            make_adapters().dispatch(
                FunctionCall.make("vcf_transform_from_file", vcf_file="ghost.vcf")
            )

    def test_unknown_future_id(self):
        with pytest.raises(AdapterError, match="Unknown AppFuture"):
            make_adapters().dispatch(
                FunctionCall.make(
                    "pyclone_vi_from_futures",
                    mutations_future_id="future-99999",
                    n_clusters=3,
                )
            )

    def test_injected_failure(self):
        adapters = make_adapters()
        adapters.inject_failure("vcf_transform_from_file")
        with pytest.raises(AdapterError, match="transient"):
            adapters.dispatch(
                FunctionCall.make("vcf_transform_from_file", vcf_file="tumor.vcf")
            )
        # Next dispatch succeeds.
        adapters.dispatch(
            FunctionCall.make("vcf_transform_from_file", vcf_file="tumor.vcf")
        )


class TestChatDriver:
    def test_nl_instruction_runs_full_pipeline(self):
        """The headline E8 result: one sentence executes all four steps
        in dependency order through function calling."""
        driver = ChatWorkflowDriver(MockFunctionCallingLLM(), make_adapters())
        result = driver.run(
            "Run the full phyloflow pipeline on tumor.vcf and build the "
            "phylogeny with 3 clusters."
        )
        assert result.stopped
        assert result.calls_made() == PIPELINE_ORDER
        assert len(result.future_ids) == 4
        tree = driver.final_value(result)
        assert tree["n_clones"] == 3
        assert result.errors == []
        # One API round per step plus the final stop.
        assert result.api_calls == 5

    def test_error_forwarded_and_recovered(self):
        adapters = make_adapters()
        adapters.inject_failure("pyclone_vi_from_futures", times=1)
        driver = ChatWorkflowDriver(MockFunctionCallingLLM(), adapters)
        result = driver.run("Run the phyloflow pipeline on tumor.vcf.")
        assert result.stopped
        assert len(result.errors) == 1
        assert result.errors[0][0] == "pyclone_vi_from_futures"
        # Retried and completed all four steps.
        assert result.calls_made().count("pyclone_vi_from_futures") == 2
        assert driver.final_value(result)["n_clones"] == 3

    def test_unrecoverable_error_stops_with_escalation(self):
        adapters = make_adapters()
        adapters.inject_failure("spruce_format_from_futures", times=99)
        driver = ChatWorkflowDriver(MockFunctionCallingLLM(max_error_retries=1),
                                    adapters)
        result = driver.run("Run the phyloflow pipeline on tumor.vcf.")
        assert result.stopped
        assert "human operator" in result.final_message
        assert len(result.errors) >= 2

    def test_single_step_instruction(self):
        driver = ChatWorkflowDriver(MockFunctionCallingLLM(), make_adapters())
        result = driver.run("Just run the vcf transform step on tumor.vcf.")
        assert result.calls_made()[0] == "vcf_transform_from_file"

    def test_validation(self):
        driver = ChatWorkflowDriver(MockFunctionCallingLLM(), make_adapters())
        with pytest.raises(ValueError):
            driver.run("   ")
        with pytest.raises(ValueError):
            ChatWorkflowDriver(MockFunctionCallingLLM(), make_adapters(), max_rounds=0)


class TestAgents:
    def test_planner_builds_chained_plan(self):
        plan = Planner().plan(
            "Analyze tumor.vcf with 4 clusters", make_adapters()
        )
        assert len(plan) == 4
        assert plan.steps[0].params == (("vcf_file", "tumor.vcf"),)
        assert dict(plan.steps[1].inputs_from) == {"mutations_future_id": 0}
        assert dict(plan.steps[1].params)["n_clusters"] == 4

    def test_planner_requires_input_file(self):
        with pytest.raises(ValueError):
            Planner().plan("Analyze my data please", make_adapters())

    def test_engine_happy_path(self):
        engine = AgentWorkflowEngine(make_adapters())
        report = engine.run("Build the phylogeny for tumor.vcf with 3 clusters")
        assert report.succeeded
        assert not report.escalated_to_human
        assert report.final_value["n_clones"] == 3
        assert all(o.status == "ok" for o in report.outcomes)

    def test_debugger_retries_transient_failure(self):
        adapters = make_adapters()
        adapters.inject_failure("pyclone_vi_from_futures", times=2)
        engine = AgentWorkflowEngine(adapters, debugger=transient_debugger(3))
        report = engine.run("Build the phylogeny for tumor.vcf")
        assert report.succeeded
        pyclone = next(
            o for o in report.outcomes
            if o.step.function == "pyclone_vi_from_futures"
        )
        assert pyclone.attempts == 3

    def test_debugger_patches_wrong_file(self):
        adapters = PhyloflowAdapters(files={"tumor.vcf": VCF})
        engine = AgentWorkflowEngine(adapters)
        # Description references a file that doesn't exist; debugger
        # patches to the one that does.
        report = engine.run("Build the phylogeny for sample.vcf")
        assert report.succeeded
        first = report.outcomes[0]
        assert first.attempts == 2
        assert dict(first.step.params) == {"vcf_file": "sample.vcf"}  # plan kept

    def test_escalation_to_human_abort(self):
        adapters = make_adapters()
        adapters.inject_failure("spruce_format_from_futures", times=99)
        seen = {}

        def operator(outcome, reason):
            seen["step"] = outcome.step.function
            return "abort"

        engine = AgentWorkflowEngine(
            adapters, debugger=transient_debugger(1), human=operator
        )
        report = engine.run("Build the phylogeny for tumor.vcf")
        assert not report.succeeded
        assert report.escalated_to_human
        assert seen["step"] == "spruce_format_from_futures"

    def test_human_can_order_retry(self):
        adapters = make_adapters()
        adapters.inject_failure("spruce_format_from_futures", times=3)
        # Debugger gives up after 1 retry; the human keeps saying retry
        # until the injected failures run out.
        engine = AgentWorkflowEngine(
            adapters,
            debugger=transient_debugger(1),
            human=lambda outcome, reason: "retry",
        )
        report = engine.run("Build the phylogeny for tumor.vcf")
        assert report.succeeded
        assert report.escalated_to_human
