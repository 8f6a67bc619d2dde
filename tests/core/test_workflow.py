"""Tests for TaskSpec and Workflow DAG construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TaskSpec, Workflow, WorkflowValidationError
from repro.data import File


def t(name, runtime=10, inputs=(), outputs=(), **kw):
    return TaskSpec(
        name,
        runtime_s=runtime,
        inputs=inputs,
        outputs=tuple(File(o, 100) for o in outputs),
        **kw,
    )


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskSpec("", runtime_s=1)
        with pytest.raises(ValueError):
            TaskSpec("x", runtime_s=-1)
        with pytest.raises(ValueError):
            TaskSpec("x", runtime_s=1, cores=0)
        with pytest.raises(TypeError):
            TaskSpec("x", runtime_s=1, outputs=("not-a-file",))

    def test_output_accessors(self):
        spec = t("a", outputs=("o1", "o2"))
        assert spec.output_names == ("o1", "o2")
        assert spec.output_bytes == 200

    def test_replace(self):
        spec = t("a")
        spec2 = spec.replace(runtime_s=99)
        assert spec2.runtime_s == 99
        assert spec.runtime_s == 10
        assert spec2.name == "a"


class TestWorkflowConstruction:
    def test_file_dependency_inference(self):
        wf = Workflow("w")
        wf.add_task(t("a", outputs=("x",)))
        wf.add_task(t("b", inputs=("x",)))
        assert wf.parents("b") == ["a"]
        assert wf.children("a") == ["b"]

    def test_explicit_after_edge(self):
        wf = Workflow("w")
        wf.add_task(t("a"))
        wf.add_task(t("b", ), after=["a"])
        assert wf.parents("b") == ["a"]

    def test_after_unknown_task_rejected(self):
        wf = Workflow("w")
        wf.add_task(t("a"))
        with pytest.raises(WorkflowValidationError):
            wf.add_task(t("b"), after=["ghost"])

    def test_duplicate_task_rejected(self):
        wf = Workflow("w")
        wf.add_task(t("a"))
        with pytest.raises(WorkflowValidationError):
            wf.add_task(t("a"))

    def test_duplicate_output_file_rejected(self):
        wf = Workflow("w")
        wf.add_task(t("a", outputs=("x",)))
        with pytest.raises(WorkflowValidationError):
            wf.add_task(t("b", outputs=("x",)))

    @pytest.mark.parametrize(
        "bad, after",
        [(t("b", outputs=("y",)), ["b"]), (t("b", inputs=("y",), outputs=("y",)), [])],
        ids=["after-self", "input-is-own-output"],
    )
    def test_self_dependency_rejected_without_mutation(self, bad, after):
        wf = Workflow("w")
        wf.add_task(t("a", outputs=("x",)))
        with pytest.raises(WorkflowValidationError, match="would create a cycle"):
            wf.add_task(bad, after=after)
        assert len(wf) == 1
        assert "b" not in wf
        assert wf.producer_of("y") is None
        assert wf.children("a") == []
        wf.add_task(t("b", inputs=("x",), outputs=("y",)))
        assert wf.parents("b") == ["a"]
        assert wf.producer_of("y") == "b"

    def test_file_and_after_edge_to_same_parent_is_one_edge(self):
        wf = Workflow("w")
        wf.add_task(t("a", outputs=("x",)))
        wf.add_task(t("b", inputs=("x",)), after=["a"])
        assert wf.parents("b") == ["a"]
        assert wf.children("a") == ["b"]
        assert wf.to_dot().count('"a" -> "b"') == 1
        assert repr(wf) == "<Workflow 'w': 2 tasks, 1 edges>"

    def test_external_inputs(self):
        wf = Workflow("w")
        wf.add_task(t("a", inputs=("raw.vcf",), outputs=("x",)))
        wf.add_task(t("b", inputs=("x",)))
        assert wf.external_inputs() == {"raw.vcf"}

    def test_empty_workflow_invalid(self):
        with pytest.raises(WorkflowValidationError):
            Workflow("w").validate()

    def test_roots_and_sinks(self):
        wf = Workflow("w")
        wf.add_task(t("a", outputs=("x",)))
        wf.add_task(t("b", outputs=("y",)))
        wf.add_task(t("c", inputs=("x", "y")))
        assert wf.roots() == ["a", "b"]
        assert wf.sinks() == ["c"]


class TestWorkflowQueries:
    def diamond(self):
        wf = Workflow("diamond")
        wf.add_task(t("src", outputs=("s",)))
        wf.add_task(t("left", inputs=("s",), outputs=("l",)))
        wf.add_task(t("right", inputs=("s",), outputs=("r",)))
        wf.add_task(t("sink", inputs=("l", "r")))
        return wf

    def test_topological_order(self):
        wf = self.diamond()
        order = wf.topological_order()
        assert order.index("src") < order.index("left")
        assert order.index("left") < order.index("sink")
        assert order.index("right") < order.index("sink")

    def test_topological_order_is_lexicographic_not_insertion(self):
        wf = Workflow("w")
        wf.add_task(t("z"))
        wf.add_task(t("y"), after=["z"])
        wf.add_task(t("a"), after=["y"])
        wf.add_task(t("m"))
        wf.add_task(t("b"), after=["m"])
        assert wf.topological_order() == ["m", "b", "z", "y", "a"]

    def test_ready_tasks_progression(self):
        wf = self.diamond()
        assert wf.ready_tasks(set()) == ["src"]
        assert wf.ready_tasks({"src"}) == ["left", "right"]
        assert wf.ready_tasks({"src", "left"}) == ["right"]
        assert wf.ready_tasks({"src", "left", "right"}) == ["sink"]
        assert wf.ready_tasks({"src", "left", "right", "sink"}) == []

    def test_producer_of(self):
        wf = self.diamond()
        assert wf.producer_of("l") == "left"
        assert wf.producer_of("nope") is None

    def test_total_work(self):
        wf = self.diamond()
        assert wf.total_work() == 40  # 4 tasks * 10s * 1 core

    def test_len_and_contains(self):
        wf = self.diamond()
        assert len(wf) == 4
        assert "left" in wf
        assert "ghost" not in wf


@st.composite
def random_dags(draw):
    """Tasks named in a random permutation; each may depend (by file or
    by ``after=``) on any task inserted before it."""
    n = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.permutations([f"t{i:02d}" for i in range(n)]))
    wf = Workflow("rand")
    for i, name in enumerate(names):
        deps = draw(st.sets(st.sampled_from(names[:i]))) if i else set()
        by_file = draw(st.sets(st.sampled_from(sorted(deps)))) if deps else set()
        inputs = tuple(f"{d}.out" for d in sorted(by_file))
        wf.add_task(
            t(name, inputs=inputs, outputs=(f"{name}.out",)),
            after=sorted(deps - by_file),
        )
    return wf


@settings(max_examples=60, deadline=None)
@given(random_dags())
def test_topological_order_emits_smallest_ready_task(wf):
    order = wf.topological_order()
    assert sorted(order) == sorted(wf.tasks)
    position = {name: i for i, name in enumerate(order)}
    done: set = set()
    for name in order:
        assert name == min(wf.ready_tasks(done))
        done.add(name)
    for name in order:
        for child in wf.children(name):
            assert position[name] < position[child]
