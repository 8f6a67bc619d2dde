"""Round-trip tests for the WDL renderer (parse ∘ render = identity)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jaws import fuse_linear_chains, parse_wdl
from repro.jaws.wdl import render_wdl

FIXTURES = [
    # simple task + call
    """
    version 1.0
    task t {
        input { String x = "hello" }
        command <<< echo ~{x} >>>
        output { File out = "o.txt" }
        runtime { cpu: 2, memory: "4 GB", docker: "img@sha256:aa" }
    }
    workflow w {
        input { String who = "world" }
        call t { input: x = who }
        output { File final = t.out }
    }
    """,
    # scatter + function exprs + aliases
    """
    version 1.0
    task work {
        input { Int x, Float f = 1.5 }
        command <<< crunch >>>
        output { String o = "done" }
        runtime { runtime_minutes: 2 }
    }
    workflow fan {
        input { Int n = 4, Int lo = -1, Float step = -0.5,
                Array[String] tags = ["a", "b"] }
        scatter (i in range(n)) {
            call work as w1 { input: x = i }
        }
        call work as solo { input: x = length(tags) }
    }
    """,
]


def ast_fingerprint(doc):
    """Structural identity: everything semantics depends on."""
    tasks = {}
    for name, t in doc.tasks.items():
        tasks[name] = (
            tuple((str(d.type), d.name, d.expr) for d in t.inputs),
            t.command.strip(),
            tuple((str(d.type), d.name, d.expr) for d in t.outputs),
            tuple(sorted(t.runtime.items(), key=lambda kv: kv[0])),
        )

    def body_fp(body):
        out = []
        for item in body:
            if hasattr(item, "task_name"):
                out.append(
                    ("call", item.task_name, item.alias,
                     tuple(sorted(item.inputs.items())))
                )
            else:
                out.append(
                    ("scatter", item.variable, item.collection,
                     tuple(body_fp(item.body)))
                )
        return out

    wf = doc.workflow
    return (
        tasks,
        wf.name,
        tuple((str(d.type), d.name, d.expr) for d in wf.inputs),
        tuple(body_fp(wf.body)),
        tuple((str(d.type), d.name, d.expr) for d in wf.outputs),
    )


class TestRoundTrip:
    def test_fixtures_round_trip(self):
        for src in FIXTURES:
            doc = parse_wdl(src)
            rendered = render_wdl(doc)
            doc2 = parse_wdl(rendered)
            assert ast_fingerprint(doc) == ast_fingerprint(doc2)

    def test_double_render_stable(self):
        doc = parse_wdl(FIXTURES[0])
        once = render_wdl(doc)
        twice = render_wdl(parse_wdl(once))
        assert once == twice

    def test_fused_document_exports(self):
        """The migration story: fuse, render, and the result is valid
        WDL a fresh parse accepts."""
        src = """
        version 1.0
        task a { input { File f } command <<< a >>> output { File o = "a.out" }
                 runtime { runtime_minutes: 1, docker: "i@sha256:aa" } }
        task b { input { File f } command <<< b >>> output { File o = "b.out" }
                 runtime { runtime_minutes: 2, docker: "i@sha256:aa" } }
        workflow w {
            input { File start = "x.dat" }
            call a { input: f = start }
            call b { input: f = a.o }
        }
        """
        fused, fusions = fuse_linear_chains(parse_wdl(src))
        assert fusions
        rendered = render_wdl(fused)
        reparsed = parse_wdl(rendered)
        assert "fused_a_b" in reparsed.tasks
        assert ast_fingerprint(fused) == ast_fingerprint(reparsed)


# -- property-based round-trip over generated documents ----------------------------

_ident = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_literal = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.text(alphabet="abcdefgh ", min_size=0, max_size=12),
    st.booleans(),
)


@st.composite
def wdl_documents(draw):
    n_tasks = draw(st.integers(min_value=1, max_value=4))
    task_names = draw(
        st.lists(_ident, min_size=n_tasks, max_size=n_tasks, unique=True)
    )
    src_tasks = []
    for name in task_names:
        n_inputs = draw(st.integers(min_value=0, max_value=3))
        inputs = draw(
            st.lists(_ident, min_size=n_inputs, max_size=n_inputs, unique=True)
        )
        input_lines = " ".join(f"String {i}" for i in inputs)
        input_block = f"input {{ {input_lines} }}" if inputs else ""
        minutes = draw(st.integers(min_value=1, max_value=100))
        src_tasks.append(
            f"task {name} {{ {input_block} command <<< step >>> "
            f'output {{ String o = "done" }} '
            f"runtime {{ runtime_minutes: {minutes} }} }}"
        )
    calls = []
    for idx, name in enumerate(task_names):
        alias = f"c{idx}"
        calls.append(f"call {name} as {alias}")
    body = "\n".join(calls)
    return f"version 1.0\n{chr(10).join(src_tasks)}\nworkflow wf {{ {body} }}"


@given(src=wdl_documents())
@settings(max_examples=50, deadline=None)
def test_generated_documents_round_trip(src):
    doc = parse_wdl(src)
    rendered = render_wdl(doc)
    doc2 = parse_wdl(rendered)
    assert ast_fingerprint(doc) == ast_fingerprint(doc2)
