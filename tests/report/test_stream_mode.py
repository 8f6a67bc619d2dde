"""Reports from the compact trace reader: identical verdicts.

A trace read back by :meth:`~repro.obs.stream.StubTrace.from_jsonl`
keeps only what the report analyses read, so the verdict built from
it must equal the one built from the live tracer, byte for byte.  The
full eight-scenario sweep is exercised once per PR by CI's report
smoke and the golden digests; here E1 (plain), E2 (series rules +
idle + stragglers) and E4 (failed spans, so the ``state`` tag
matters) pin the contract in tier-1 time, and the CLI's trace-file
mode is checked against a lossless reload.
"""

import json

import pytest

from repro.obs.export import read_jsonl, to_jsonl, write_jsonl
from repro.obs.stream import StubTrace
from repro.report import build_report, write_verdict
from repro.report.__main__ import main
from repro.report.scenarios import SCENARIOS

from tests.obs.minirun import mini_entk_run


@pytest.mark.parametrize("bench_id", ["E1", "E2", "E4"])
def test_stream_verdict_equals_batch(bench_id):
    scenario = SCENARIOS[bench_id]
    row = scenario.scales["reduced"]
    extra = scenario.extra("reduced")
    outcome, tracer = scenario.trace("reduced")
    # Read back first: the live report records its alert spans.
    readback = StubTrace.from_jsonl(to_jsonl(tracer).splitlines())
    batch = scenario.report(row, False, outcome, tracer, extra).to_verdict()
    stream = scenario.report(row, False, outcome, readback, extra).to_verdict()
    assert json.dumps(batch, sort_keys=True) == json.dumps(
        stream, sort_keys=True
    )


class TestStreamReportFromJsonl:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        _, tracer = mini_entk_run(n_tasks=50, nodes=50, seed=9)
        path = tmp_path_factory.mktemp("traces") / "mini.trace.jsonl"
        write_jsonl(tracer, path)
        return path

    def test_matches_batch_build_report(self, trace_file):
        batch = build_report(
            "MINI", read_jsonl(trace_file), title="t"
        ).to_verdict()
        stream = build_report(
            "MINI", StubTrace.from_jsonl_path(trace_file), title="t"
        ).to_verdict()
        assert json.dumps(batch, sort_keys=True) == json.dumps(
            stream, sort_keys=True
        )

    def test_bench_id_defaults_to_file_stem(self, trace_file, tmp_path, capsys):
        assert main([str(trace_file), "--out", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["bench"] == "mini"
        assert (tmp_path / "BENCH_mini.json").exists()

    def test_cli_stream_trace_mode(self, trace_file, tmp_path, capsys):
        code = main(
            [str(trace_file), "--out", str(tmp_path), "--name", "MINI",
             "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "MINI"
        assert (tmp_path / "BENCH_MINI.json").exists()

    def test_cli_stream_matches_cli_batch(self, trace_file, tmp_path):
        batch = build_report(
            "mini", read_jsonl(trace_file), title=f"trace {trace_file.name}"
        )
        write_verdict(batch, tmp_path / "batch")
        assert main([str(trace_file), "--out", str(tmp_path / "cli")]) == 0
        cli = (tmp_path / "cli" / "BENCH_mini.json").read_text()
        assert cli == (tmp_path / "batch" / "BENCH_mini.json").read_text()

    def test_cli_stream_bad_rule_is_clean_error(self, trace_file, tmp_path):
        assert main(
            [str(trace_file), "--out", str(tmp_path), "--rule", "nope <= 1"]
        ) == 2


def test_stream_mode_rejects_dependency_analysis():
    _, tracer = mini_entk_run(n_tasks=10, nodes=10, seed=1)
    with pytest.raises(ValueError, match="batch path"):
        build_report("X", tracer, stream=True, deps={})


@pytest.mark.parametrize(
    "data",
    [
        b'{"type": "span", "id": 0, "t0": 0.0, "t1": 1.0}\n',  # no name
        b"\xff\xfe not utf-8\n",
        None,  # a directory
    ],
    ids=["malformed-record", "non-utf8", "directory"],
)
def test_cli_unreadable_trace_is_usage_error(data, tmp_path, capsys):
    trace_file = tmp_path / "bad.trace.jsonl"
    if data is None:
        trace_file.mkdir()
    else:
        trace_file.write_bytes(data)
    assert main([str(trace_file), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {trace_file}: ")
    assert not (tmp_path / "out").exists()
