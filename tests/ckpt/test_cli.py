"""``python -m repro.ckpt``: directories with nothing to act on give one
``error:`` line and exit 2, never a traceback."""

from __future__ import annotations

import pytest

from repro.ckpt.__main__ import main
from repro.ckpt.format import MANIFEST_NAME, write_manifest


def _only_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_resume_without_manifest_exits_2(tmp_path, capsys):
    assert main(["resume", "--dir", str(tmp_path)]) == 2
    assert "manifest" in _only_error_line(capsys)


def test_digest_without_manifest_exits_2(tmp_path, capsys):
    assert main(["digest", "--dir", str(tmp_path)]) == 2
    assert "manifest" in _only_error_line(capsys)


def test_digest_before_spill_existed_exits_2(tmp_path, capsys):
    # A run killed after its manifest landed but before the scenario
    # enabled tracing leaves no spill directory behind.
    write_manifest(
        tmp_path,
        {
            "kind": "scenario",
            "bench": "E2",
            "cadence": 600.0,
            "full": False,
            "segment_records": 2000,
            "completed": False,
        },
    )
    assert main(["digest", "--dir", str(tmp_path)]) == 2
    assert "spill/" in _only_error_line(capsys)


def test_run_unknown_bench_exits_2_and_writes_nothing(tmp_path, capsys):
    directory = tmp_path / "ckpt"
    assert main(["run", "--bench", "E9", "--dir", str(directory)]) == 2
    line = _only_error_line(capsys)
    assert "E9" in line and "E1, E2" in line
    assert not directory.exists()


@pytest.mark.parametrize("cmd", ["resume", "digest"])
@pytest.mark.parametrize("text", ["[1,2]", '{"bench": NaN', '{"version": 1}'])
def test_unreadable_manifest_exits_2(tmp_path, capsys, cmd, text):
    (tmp_path / MANIFEST_NAME).write_text(text)
    assert main([cmd, "--dir", str(tmp_path)]) == 2
    assert "manifest" in _only_error_line(capsys)
