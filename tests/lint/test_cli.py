"""CLI behaviour and the self-check: the shipped tree lints clean."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.config import tomllib  # stdlib on 3.11+, tomli backport on 3.10

# Every test here spawns the CLI against a project with a pyproject.toml,
# which the CLI cannot read without a TOML parser.
pytestmark = pytest.mark.skipif(
    tomllib is None, reason="no TOML parser on this interpreter (3.10 without tomli)"
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(args, cwd):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def make_project(tmp_path: Path, source: str) -> Path:
    (tmp_path / "pyproject.toml").write_text("[tool.simlint]\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    return tmp_path


class TestCli:
    def test_exit_1_and_json_on_findings(self, tmp_path):
        root = make_project(tmp_path, "import random\nx = random.random()\n")
        proc = run_cli(["src", "--format", "json"], cwd=root)
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["tool"] == "simlint"
        assert [f["rule"] for f in doc["findings"]] == ["DET002"]
        assert doc["findings"][0]["path"] == "src/repro/mod.py"

    def test_exit_0_on_clean_tree(self, tmp_path):
        root = make_project(tmp_path, "x = 1\n")
        proc = run_cli(["src"], cwd=root)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_default_paths_resolve_against_root_from_subdir(self, tmp_path):
        # Config-derived default paths are project-relative: the default
        # invocation must work (and report root-relative paths) even when
        # launched from a subdirectory of the repo.
        root = make_project(tmp_path, "import random\nx = random.random()\n")
        (root / "pyproject.toml").write_text('[tool.simlint]\npaths = ["src"]\n')
        proc = run_cli(["--format", "json"], cwd=root / "src" / "repro")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        assert [f["rule"] for f in doc["findings"]] == ["DET002"]
        assert doc["findings"][0]["path"] == "src/repro/mod.py"

    def test_overlapping_paths_lint_each_file_once(self, tmp_path):
        root = make_project(tmp_path, "import random\nx = random.random()\n")
        proc = run_cli(["src", "src/repro", "src/repro/mod.py", "--format", "json"], cwd=root)
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["files_checked"] == 1
        assert [f["rule"] for f in doc["findings"]] == ["DET002"]

    def test_exit_2_on_missing_path(self, tmp_path):
        root = make_project(tmp_path, "x = 1\n")
        proc = run_cli(["no/such/dir"], cwd=root)
        assert proc.returncode == 2

    def test_exit_2_on_stale_rule_scope(self, tmp_path):
        root = make_project(tmp_path, "x = 1\n")
        (root / "pyproject.toml").write_text(
            '[tool.simlint.scopes]\nKER007 = { include = ["src/*"] }\n'
        )
        proc = run_cli(["src"], cwd=root)
        assert proc.returncode == 2
        assert "KER007" in proc.stderr

    def test_syntax_error_reported_not_crashed(self, tmp_path):
        root = make_project(tmp_path, "def broken(:\n")
        proc = run_cli(["src", "--format", "json"], cwd=root)
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert [f["rule"] for f in doc["findings"]] == ["ERR001"]

    def test_out_file_written(self, tmp_path):
        root = make_project(tmp_path, "x = 1\n")
        proc = run_cli(["src", "--format", "json", "--out", "report/lint.json"], cwd=root)
        assert proc.returncode == 0
        doc = json.loads((root / "report" / "lint.json").read_text())
        assert doc["exit_code"] == 0

    def test_list_rules_covers_all_families(self, tmp_path):
        root = make_project(tmp_path, "x = 1\n")
        proc = run_cli(["--list-rules"], cwd=root)
        assert proc.returncode == 0
        for family in ("DET001", "KER001", "OBS001", "RES001"):
            assert family in proc.stdout


class TestSelfCheck:
    def test_shipped_tree_lints_clean(self):
        """The acceptance gate: `python -m repro.lint src tests benchmarks`
        exits 0."""
        proc = run_cli(
            ["src", "tests", "benchmarks", "--format", "json"], cwd=REPO_ROOT
        )
        doc = json.loads(proc.stdout)
        live = [f["rule"] + " " + f["path"] for f in doc["findings"]]
        assert proc.returncode == 0, f"simlint findings on shipped tree: {live}"
        # Every suppression in the tree carries a written justification
        # (SUP001 would otherwise fire); assert they exist and are real.
        for sup in doc["suppressed"]:
            assert sup["justification"].strip()
