"""SARIF 2.1.0 rendering and the --format CLI surface."""

import json

from repro.lint.__main__ import main
from repro.lint.engine import lint_source
from repro.lint.sarif import SARIF_SCHEMA, SARIF_VERSION, render_sarif

RACY = """\
import random

def pick(items):
    return random.choice(items)
"""

SUPPRESSED = """\
import random

def pick(items):
    return random.choice(items)  # simlint: disable=DET002 -- seeded upstream
"""


class TestRenderSarif:
    def _log(self, src=RACY):
        result = lint_source(src, relpath="src/repro/fake_mod.py")
        return result, json.loads(render_sarif(result))

    def test_envelope(self):
        _, log = self._log()
        assert log["version"] == SARIF_VERSION
        assert log["$schema"] == SARIF_SCHEMA
        assert len(log["runs"]) == 1
        assert log["runs"][0]["tool"]["driver"]["name"] == "simlint"

    def test_rule_catalog_embedded(self):
        _, log = self._log()
        ids = {r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]}
        assert {"DET002", "RACE001", "RACE004"} <= ids

    def test_results_match_findings(self):
        result, log = self._log()
        results = log["runs"][0]["results"]
        live = [r for r in results if "suppressions" not in r]
        assert len(live) == len(result.findings)
        by_rule = {r["ruleId"] for r in live}
        assert "DET002" in by_rule
        (det,) = [r for r in live if r["ruleId"] == "DET002"]
        loc = det["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/fake_mod.py"
        assert loc["region"]["startLine"] == 4
        assert det["partialFingerprints"]["simlint/v1"].startswith("DET002|")

    def test_suppressed_findings_carry_suppressions(self):
        _, log = self._log(SUPPRESSED)
        results = log["runs"][0]["results"]
        sup = [r for r in results if "suppressions" in r]
        assert any(
            s["suppressions"][0]["kind"] == "inSource"
            and s["suppressions"][0]["justification"] == "seeded upstream"
            for s in sup
        )

    def test_byte_stable(self):
        a = render_sarif(lint_source(RACY, relpath="src/repro/fake_mod.py"))
        b = render_sarif(lint_source(RACY, relpath="src/repro/fake_mod.py"))
        assert a == b


class TestCliFormat:
    def _write(self, tmp_path, name="mod.py", src=RACY):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[tool.simlint]\n")
        target = pkg / name
        target.write_text(src)
        return target

    def test_format_sarif(self, tmp_path, capsys, monkeypatch):
        target = self._write(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = main(["--format", "sarif", str(target)])
        out = capsys.readouterr().out
        log = json.loads(out)
        assert log["version"] == "2.1.0"
        assert code == 1  # findings present

    def test_out_writes_selected_format(self, tmp_path, capsys, monkeypatch):
        target = self._write(tmp_path)
        monkeypatch.chdir(tmp_path)
        out_file = tmp_path / "report.sarif"
        main(["--format", "sarif", "--out", str(out_file), str(target)])
        capsys.readouterr()
        log = json.loads(out_file.read_text())
        assert log["version"] == "2.1.0"
