"""``python -m repro.ckpt``: directories with nothing to act on give one
``error:`` line and exit 2, never a traceback."""

from __future__ import annotations

from repro.ckpt.__main__ import main
from repro.ckpt.format import write_manifest


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
