"""The Fig 1 multi-agent engine: planner → executor → debugger → human.

"The planner, executor, and debugger are all AI agents that use LLM to
process textual input [...] A human operator may also be involved if
the debugger cannot resolve the issue."

Each agent is a deterministic rule-based policy operating on the same
artifacts a hosted LLM would (schemas, plans, exception text), so the
engine's control flow — plan, execute step, validate, debug, retry or
escalate — is exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.llm.adapters import AdapterError, PhyloflowAdapters
from repro.llm.protocol import FunctionCall
from repro.resilience import RetryPolicy, TRANSIENT_ONLY


@dataclass(frozen=True)
class PlanStep:
    """One step of a plan: a function plus where its inputs come from."""

    index: int
    function: str
    #: Static arguments (e.g. file paths, n_clusters).
    params: tuple = ()
    #: Parameter name -> index of the plan step whose future feeds it.
    inputs_from: tuple = ()


@dataclass(frozen=True)
class Plan:
    """An ordered plan derived from a natural-language description."""

    description: str
    steps: tuple = ()

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class StepOutcome:
    step: PlanStep
    status: str = "pending"  # ok | failed | skipped
    future_id: Optional[str] = None
    attempts: int = 0
    errors: list = field(default_factory=list)


@dataclass
class ExecutionReport:
    plan: Plan
    outcomes: list = field(default_factory=list)
    succeeded: bool = False
    escalated_to_human: bool = False
    final_value: object = None


class Planner:
    """Turns an NL description into a plan over the advertised functions.

    Policy: take the adapter functions in pipeline order; bind the first
    step's file parameter to the mentioned input file; wire each later
    step's ``*_id`` parameter to the previous step's future.
    """

    def plan(self, description: str, adapters: PhyloflowAdapters) -> Plan:
        import re

        files = re.findall(r"[\w./-]+\.(?:vcf|tsv|txt|json)\b", description)
        m = re.search(r"\b(\d+)\s+clusters?\b", description)
        n_clusters = int(m.group(1)) if m else 3
        steps = []
        for idx, schema in enumerate(adapters.schemas()):
            params = {}
            inputs_from = {}
            for pname in schema.required:
                if pname.endswith(("_file", "_path")):
                    if not files:
                        raise ValueError(
                            f"Plan needs an input file for {schema.name} but the "
                            "description mentions none"
                        )
                    params[pname] = files[0]
                elif pname.endswith("_id"):
                    if idx == 0:
                        raise ValueError(
                            f"First step {schema.name} cannot take a future input"
                        )
                    inputs_from[pname] = idx - 1
                elif pname in ("n_clusters", "clusters"):
                    params[pname] = n_clusters
            steps.append(
                PlanStep(
                    index=idx,
                    function=schema.name,
                    params=tuple(sorted(params.items())),
                    inputs_from=tuple(sorted(inputs_from.items())),
                )
            )
        return Plan(description=description, steps=tuple(steps))


class Debugger:
    """Diagnoses a failed step and proposes an action.

    Rules (ordered):

    - failures the retry policy classifies as transient → ``retry``
      (up to the policy's attempt budget),
    - a missing-file error with an alternative file available → ``patch``
      with the corrected path,
    - anything else → ``escalate`` to the human operator.
    """

    def __init__(
        self,
        retry_policy: RetryPolicy = RetryPolicy(
            max_retries=2, retry_on=TRANSIENT_ONLY
        ),
    ):
        self.retry_policy = retry_policy

    def diagnose(
        self, outcome: StepOutcome, adapters: PhyloflowAdapters
    ) -> tuple:
        """Returns ``(action, payload)``: ("retry", None), ("patch",
        new_params) or ("escalate", reason)."""
        error = outcome.errors[-1] if outcome.errors else ""
        if error and self.retry_policy.should_retry(outcome.attempts, error):
            return "retry", None
        if "no such file" in error:
            params = dict(outcome.step.params)
            file_params = [
                k for k in params if k.endswith(("_file", "_path"))
            ]
            for k in file_params:
                alternatives = [f for f in adapters.files if f != params[k]]
                if alternatives:
                    params[k] = sorted(alternatives)[0]
                    return "patch", tuple(sorted(params.items()))
            return "escalate", f"input file {params} not found anywhere"
        return "escalate", error or "unknown failure"


class Executor:
    """Executes plan steps through the adapters, validating each one."""

    def execute_step(
        self, step: PlanStep, adapters: PhyloflowAdapters, outcomes: list
    ) -> StepOutcome:
        outcome = next(o for o in outcomes if o.step.index == step.index)
        outcome.attempts += 1
        kwargs = dict(step.params)
        for pname, src_idx in step.inputs_from:
            src = outcomes[src_idx]
            if src.status != "ok":
                outcome.status = "skipped"
                outcome.errors.append(f"dependency step {src_idx} not ok")
                return outcome
            kwargs[pname] = src.future_id
        try:
            fid = adapters.dispatch(FunctionCall.make(step.function, **kwargs))
            outcome.future_id = fid
            outcome.status = "ok"
        except AdapterError as exc:
            outcome.status = "failed"
            outcome.errors.append(str(exc))
        return outcome


class AgentWorkflowEngine:
    """Wires planner, executor, debugger and the human gate together."""

    def __init__(
        self,
        adapters: PhyloflowAdapters,
        planner: Optional[Planner] = None,
        executor: Optional[Executor] = None,
        debugger: Optional[Debugger] = None,
        human: Optional[Callable[[StepOutcome, str], str]] = None,
    ):
        self.adapters = adapters
        self.planner = planner or Planner()
        self.executor = executor or Executor()
        self.debugger = debugger or Debugger()
        #: Called with (outcome, reason) on escalation; returns "abort"
        #: or "retry".  Default operator aborts.
        self.human = human or (lambda outcome, reason: "abort")

    def run(self, description: str) -> ExecutionReport:
        """Plan and execute an NL description, recovering where possible."""
        plan = self.planner.plan(description, self.adapters)
        report = ExecutionReport(plan=plan)
        report.outcomes = [StepOutcome(step=s) for s in plan.steps]
        for step in plan.steps:
            while True:
                outcome = self.executor.execute_step(
                    step, self.adapters, report.outcomes
                )
                if outcome.status in ("ok", "skipped"):
                    break
                action, payload = self.debugger.diagnose(outcome, self.adapters)
                if action == "retry":
                    continue
                if action == "patch":
                    step = PlanStep(
                        index=step.index,
                        function=step.function,
                        params=payload,
                        inputs_from=step.inputs_from,
                    )
                    continue
                report.escalated_to_human = True
                decision = self.human(outcome, payload)
                if decision == "retry":
                    continue
                break
            if outcome.status != "ok":
                report.succeeded = False
                return report
        report.succeeded = all(o.status == "ok" for o in report.outcomes)
        if report.succeeded:
            report.final_value = self.adapters.resolve(
                report.outcomes[-1].future_id
            )
        return report
