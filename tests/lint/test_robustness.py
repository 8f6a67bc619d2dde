"""Hostile inputs: the linter must report ERR001, never trace back."""

from pathlib import Path

from repro.lint.__main__ import main
from repro.lint.config import LintConfig
from repro.lint.engine import lint_paths, lint_source
from repro.lint.sarif import render_sarif

BROKEN = "def broken(:\n    pass\n"
RACY = "import random\nx = random.random()\n"


class TestSyntaxErrors:
    def test_syntax_error_becomes_err001(self):
        result = lint_source(BROKEN, relpath="src/repro/bad.py")
        assert [f.rule for f in result.findings] == ["ERR001"]
        (err,) = result.findings
        assert "syntax error" in err.message
        assert err.line == 1

    def test_null_byte_source_becomes_err001(self):
        result = lint_source("x = 1\x00\n", relpath="src/repro/bad.py")
        assert [f.rule for f in result.findings] == ["ERR001"]

    def test_err001_location_points_at_the_error(self):
        src = "import random\n\ndef ok():\n    pass\n\ndef broken(:\n"
        result = lint_source(src, relpath="src/repro/bad.py")
        (err,) = [f for f in result.findings if f.rule == "ERR001"]
        assert err.line == 6

    def test_err001_renders_in_every_format(self):
        result = lint_source(BROKEN, relpath="src/repro/bad.py")
        assert result.exit_code == 1
        sarif = render_sarif(result)
        assert '"ruleId": "ERR001"' in sarif


class TestUnreadableFiles:
    def _tree(self, tmp_path: Path) -> Path:
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[tool.simlint]\n")
        return pkg

    def test_non_utf8_file_becomes_err001(self, tmp_path):
        pkg = self._tree(tmp_path)
        bad = pkg / "latin.py"
        bad.write_bytes(b"# caf\xe9\nx = 1\n")  # latin-1, not utf-8
        result = lint_paths([bad], root=tmp_path, config=LintConfig())
        assert [f.rule for f in result.findings] == ["ERR001"]
        assert "unreadable file" in result.findings[0].message

    def test_one_bad_file_does_not_abort_the_run(self, tmp_path):
        pkg = self._tree(tmp_path)
        (pkg / "latin.py").write_bytes(b"\xff\xfe garbage")
        (pkg / "broken.py").write_text(BROKEN)
        (pkg / "racy.py").write_text(RACY)
        result = lint_paths([pkg], root=tmp_path, config=LintConfig())
        rules = sorted(f.rule for f in result.findings)
        # both failures reported AND the healthy file still linted
        assert rules.count("ERR001") == 2
        assert "DET002" in rules

    def test_program_pass_skips_unparseable_files(self, tmp_path):
        # A RACE001 pair in good files still fires when an unparseable
        # file sits next to them in the same run.
        pkg = self._tree(tmp_path)
        (pkg / "broken.py").write_text(BROKEN)
        (pkg / "shared.py").write_text(
            "STATE = {}\n"
            "def writer_a(env):\n"
            "    STATE['k'] = 'a'\n"
            "    yield env.timeout(1)\n"
            "def writer_b(env):\n"
            "    STATE['k'] = 'b'\n"
            "    yield env.timeout(1)\n"
            "def build(env):\n"
            "    env.process(writer_a(env))\n"
            "    env.process(writer_b(env))\n"
        )
        result = lint_paths([pkg], root=tmp_path, config=LintConfig())
        rules = [f.rule for f in result.findings]
        assert "ERR001" in rules
        assert "RACE001" in rules

    def test_cli_exit_code_is_findings_not_crash(self, tmp_path, capsys, monkeypatch):
        pkg = self._tree(tmp_path)
        (pkg / "latin.py").write_bytes(b"\xff\xfe garbage")
        monkeypatch.chdir(tmp_path)
        assert main([str(pkg)]) == 1
        assert "ERR001" in capsys.readouterr().out

