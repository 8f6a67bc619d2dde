"""Tests for the WDL-subset parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jaws import WdlParseError, parse_wdl
from repro.jaws.wdl import Attr, FuncCall, Ident, Literal, WdlCall, WdlScatter

SIMPLE = """
version 1.0

task greet {
    input {
        String name
        Int copies = 2
    }
    command <<<
        echo "hello ~{name}" > out.txt
    >>>
    output {
        File result = "out.txt"
    }
    runtime {
        cpu: 2
        memory: "4 GB"
        docker: "ubuntu@sha256:abc123"
        runtime_minutes: 5
    }
}

workflow hello {
    input {
        String who = "world"
    }
    call greet { input: name = who }
    output {
        File final = greet.result
    }
}
"""

SCATTERED = """
version 1.0
task work {
    input { Int x }
    command <<< echo ~{x} >>>
    output { String done = "done" }
    runtime { runtime_minutes: 2 }
}
workflow fan {
    input { Int n = 4 }
    scatter (i in range(n)) {
        call work { input: x = i }
    }
}
"""


class TestParsing:
    def test_simple_document(self):
        doc = parse_wdl(SIMPLE)
        assert doc.version == "1.0"
        assert set(doc.tasks) == {"greet"}
        task = doc.tasks["greet"]
        assert [d.name for d in task.inputs] == ["name", "copies"]
        assert task.inputs[1].expr == Literal(2)
        assert 'echo "hello ~{name}"' in task.command
        assert task.outputs[0].name == "result"
        assert task.runtime_value("cpu") == 2
        assert task.runtime_value("memory") == "4 GB"
        assert "sha256" in task.runtime_value("docker")

    def test_workflow_structure(self):
        doc = parse_wdl(SIMPLE)
        wf = doc.workflow
        assert wf.name == "hello"
        assert isinstance(wf.body[0], WdlCall)
        assert wf.body[0].inputs["name"] == Ident("who")
        assert wf.outputs[0].expr == Attr(Ident("greet"), "result")

    def test_scatter_parsed(self):
        doc = parse_wdl(SCATTERED)
        scatter = doc.workflow.body[0]
        assert isinstance(scatter, WdlScatter)
        assert scatter.variable == "i"
        assert scatter.collection == FuncCall("range", (Ident("n"),))
        assert isinstance(scatter.body[0], WdlCall)

    def test_call_alias(self):
        doc = parse_wdl(
            SIMPLE.replace("call greet {", "call greet as hi {")
        )
        assert doc.workflow.body[0].name == "hi"

    def test_calls_helper_recurses_scatter(self):
        doc = parse_wdl(SCATTERED)
        assert [c.task_name for c in doc.workflow.calls()] == ["work"]

    def test_array_type_and_literal(self):
        doc = parse_wdl(
            """
            task t {
                input { Array[Int] xs = [1, 2, 3] }
                command <<< true >>>
                output { String o = "ok" }
            }
            workflow w { call t }
            """
        )
        decl = doc.tasks["t"].inputs[0]
        assert decl.type.name == "Array"
        assert decl.type.item.name == "Int"
        assert [i.value for i in decl.expr.items] == [1, 2, 3]


class TestParseErrors:
    def test_unknown_task_reference(self):
        with pytest.raises(WdlParseError, match="unknown task"):
            parse_wdl("workflow w { call ghost }")

    def test_duplicate_call_names(self):
        src = """
        task t { command <<< true >>> output { String o = "x" } }
        workflow w { call t call t }
        """
        with pytest.raises(WdlParseError, match="duplicate call"):
            parse_wdl(src)

    def test_duplicate_task(self):
        src = """
        task t { command <<< a >>> }
        task t { command <<< b >>> }
        workflow w { call t }
        """
        with pytest.raises(WdlParseError, match="duplicate task"):
            parse_wdl(src)

    def test_no_workflow(self):
        with pytest.raises(WdlParseError, match="no workflow"):
            parse_wdl("task t { command <<< x >>> }")

    def test_unknown_type(self):
        with pytest.raises(WdlParseError, match="Unknown type"):
            parse_wdl("task t { input { Blob x } command <<< x >>> } workflow w { call t }")

    def test_output_without_expr(self):
        with pytest.raises(WdlParseError, match="needs"):
            parse_wdl(
                "task t { command <<< x >>> output { File f } } workflow w { call t }"
            )

    def test_garbage_character(self):
        with pytest.raises(WdlParseError, match="Unexpected character"):
            parse_wdl("workflow w @ {}")

    def test_multiple_workflows(self):
        src = """
        workflow a { }
        workflow b { }
        """
        with pytest.raises(WdlParseError, match="multiple workflow"):
            parse_wdl(src)


@st.composite
def mutated_wdl(draw):
    """A valid document with 1–4 single-character deletions, insertions
    or replacements, drawn from the characters the grammar cares about."""
    text = draw(st.sampled_from([SIMPLE, SCATTERED]))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text) - 1))
        ch = draw(st.sampled_from(list('{}()<>[]"~:=,.\n x1')))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        if op == "delete":
            text = text[:i] + text[i + 1:]
        elif op == "insert":
            text = text[:i] + ch + text[i:]
        else:
            text = text[:i] + ch + text[i + 1:]
    return text


@given(mutated_wdl())
@settings(max_examples=200, deadline=2000)
def test_mutated_wdl_raises_only_parse_errors(text):
    try:
        parse_wdl(text)
    except WdlParseError:
        pass
