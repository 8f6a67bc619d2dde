"""``python -m repro.sanitizer``: bench ids come from the scenario
registry, so the CLI works from any directory, keeps its golden-digest
drift check there, and rejects unknown ids as a usage error (exit 2)."""

from __future__ import annotations

import json

import pytest

from repro.report import scenarios
from repro.sanitizer.__main__ import main


def test_runs_from_another_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "simsan-results" / "SIMSAN.json"
    assert main(["--only", "E5,E7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] and doc["baseline_drift"] == []
    assert {r["bench_id"] for r in doc["results"]} == {"E5", "E7"}


def test_drift_check_is_live_away_from_the_repo_root(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = scenarios.golden_trace

    def patched(bench_id):
        if bench_id == "E7":
            return '{"name": "patched", "type": "instant"}\n'
        return real(bench_id)

    monkeypatch.setattr(scenarios, "golden_trace", patched)
    out = tmp_path / "simsan.json"
    assert main(["--only", "E5,E7", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["baseline_drift"] == ["E7"]


@pytest.mark.parametrize("only", ["E9", "E2,E9", "x"])
def test_unknown_id_is_a_usage_error(only, capsys):
    assert main(["--only", only]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "E1, E2, E3, E4, E5, E6, E7, E8" in err[0]


def test_ids_match_case_insensitively_and_skip_empty_entries(tmp_path):
    out = tmp_path / "simsan.json"
    assert main(["--only", "e5,,E5,", "--out", str(out)]) == 0
    assert {r["bench_id"] for r in json.loads(out.read_text())["results"]} == {
        "E5"
    }


def test_reduced_scale_is_checked_against_its_own_unpermuted_run(tmp_path):
    out = tmp_path / "simsan.json"
    assert main(["--only", "E7", "--scale", "reduced", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["scale"] == "reduced" and doc["passed"]
    # No digest pins a reduced run, so there is no drift to report.
    assert doc["baseline_drift"] == []
    assert {r["mode"] for r in doc["results"]} == {"reverse", "shuffle"}


def test_unknown_scale_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scale", "full"])
    assert exc.value.code == 2
