"""Config loading (pyproject round-trip), scoping, and key validation."""

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import LintConfig, load_config
from repro.lint.config import ConfigError, config_from_pyproject
from repro.lint.config import tomllib  # stdlib on 3.11+, tomli backport on 3.10

VIOLATION = "import random\ndelay = random.random()\n"

needs_toml = pytest.mark.skipif(
    tomllib is None, reason="no TOML parser on this interpreter (3.10 without tomli)"
)


class TestConfig:
    def test_disable_switches_rule_off(self, check):
        cfg = LintConfig(disable=["DET002"])
        assert check(VIOLATION, rule="DET002", config=cfg) == []

    def test_enable_allowlist_limits_rules(self, check):
        src = "import random, time\nx = random.random() + time.time()\n"
        cfg = LintConfig(enable=["DET001"])
        found = check(src, config=cfg)
        assert [f.rule for f in found] == ["DET001"]

    def test_det_rules_scoped_out_of_tests(self, check):
        # Default scope: DET applies under src/repro/, not tests/.
        assert check(VIOLATION, rule="DET002", relpath="tests/test_x.py") == []
        assert len(check(VIOLATION, rule="DET002")) == 1

    def test_scope_override(self, check):
        cfg = LintConfig(
            scopes={"DET": {"include": ["lib/*"], "exclude": ["lib/vendored/*"]}}
        )
        assert len(check(VIOLATION, rule="DET002", relpath="lib/a.py", config=cfg)) == 1
        assert check(VIOLATION, rule="DET002", relpath="lib/vendored/a.py", config=cfg) == []
        assert check(VIOLATION, rule="DET002", relpath="src/repro/a.py", config=cfg) == []

    @needs_toml
    def test_pyproject_round_trip(self, tmp_path: Path):
        (tmp_path / "pyproject.toml").write_text(
            textwrap.dedent(
                """
                [tool.simlint]
                paths = ["lib"]
                disable = ["DET004"]
                entry-globs = ["lib/cli.py"]

                [tool.simlint.scopes]
                DET = { include = ["lib/*"], exclude = [] }
                """
            )
        )
        cfg = load_config(tmp_path)
        assert cfg.paths == ["lib"]
        assert not cfg.rule_enabled("DET004")
        assert cfg.is_entry_point("lib/cli.py")
        assert cfg.rule_applies("DET002", "DET", "lib/a.py")
        assert not cfg.rule_applies("DET002", "DET", "src/repro/a.py")

    @needs_toml
    @pytest.mark.parametrize(
        "body",
        [
            'enable = ["DET01"]',
            'disable = ["KER007"]',
            '[tool.simlint.scopes]\nKER007 = { include = ["src/*"] }',
        ],
    )
    def test_unknown_rule_key_is_a_config_error(self, tmp_path: Path, body):
        (tmp_path / "pyproject.toml").write_text(f"[tool.simlint]\n{body}\n")
        with pytest.raises(ConfigError, match="DET01|KER007"):
            load_config(tmp_path)

    @needs_toml
    @pytest.mark.parametrize(
        "body",
        [
            'disabel = ["DET"]',
            'path = ["lib"]',
            "baseline = []",
        ],
        ids=["disabel", "path", "baseline"],
    )
    def test_unknown_section_key_is_a_config_error(self, tmp_path: Path, body):
        # A misspelt key must not load with its setting silently ignored
        # (`disabel` would leave DET enabled).
        (tmp_path / "pyproject.toml").write_text(f"[tool.simlint]\n{body}\n")
        key = body.split(" ", 1)[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(tmp_path)

    @needs_toml
    def test_families_are_valid_keys(self, tmp_path: Path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.simlint]\ndisable = ["RACE"]\n'
            '[tool.simlint.scopes]\nKERNEL = { include = ["src/*"] }\n'
        )
        cfg = load_config(tmp_path)
        assert not cfg.rule_enabled("RACE001", "RACE")
        assert cfg.rule_enabled("KER001", "KERNEL")

    def test_missing_pyproject_gives_defaults(self, tmp_path: Path):
        cfg = load_config(tmp_path)
        assert cfg.paths == ["src", "tests"]
        assert cfg.rule_enabled("DET001")


class TestConfigTypes:
    """A value of the wrong type is a ConfigError, never a string read
    as a list of characters or a section silently ignored."""

    @needs_toml
    @pytest.mark.parametrize(
        "body",
        [
            # A string is not a list: '*' would exempt every file from
            # DET005, and "src" would name the paths s, r and c.
            '[tool.simlint]\nentry-globs = "*/__main__.py"',
            '[tool.simlint]\npaths = "src"',
            '[tool.simlint]\ndisable = [1]',
            '[tool.simlint]\nbaseline = "DET002|a.py|x"',
            "[tool]\nsimlint = 5",
            "tool = 5",
            "[tool.simlint]\nscopes = 5",
            '[tool.simlint.scopes]\nDET = "src/*"',
            "[tool.simlint.scopes]\nDET = { include = 5 }",
            '[tool.simlint.scopes]\nDET = { exclude = "tests/*" }',
        ],
        ids=[
            "entry-globs-string",
            "paths-string",
            "disable-ints",
            "baseline-string",
            "section-int",
            "tool-int",
            "scopes-int",
            "scope-string",
            "include-int",
            "exclude-string",
        ],
    )
    def test_wrong_type_is_a_config_error(self, tmp_path: Path, body):
        (tmp_path / "pyproject.toml").write_text(body + "\n")
        with pytest.raises(ConfigError):
            load_config(tmp_path)


_RULE_KEYS = ["DET", "DET005", "KERNEL", "RACE001", "NOPE9"]
_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.sampled_from(_RULE_KEYS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["include", "exclude", "x"]), inner, max_size=2),
    max_leaves=6,
)
_scopes = st.dictionaries(st.sampled_from(_RULE_KEYS), _values, max_size=3)
_sections = st.dictionaries(
    st.sampled_from(
        ["paths", "enable", "disable", "entry-globs", "baseline", "scopes", "other"]
    ),
    _values | _scopes,
    max_size=4,
)


@given(st.one_of(_sections, _values))
@settings(max_examples=300, deadline=1000)
def test_generated_sections_load_or_raise_config_error(section):
    try:
        cfg = config_from_pyproject({"tool": {"simlint": section}})
    except ConfigError:
        return
    assert isinstance(cfg, LintConfig)
    for field_ in (cfg.paths, cfg.enable, cfg.disable, cfg.entry_globs):
        assert all(isinstance(v, str) for v in field_)
    for scope in cfg.scopes.values():
        assert all(isinstance(g, str) for part in scope.values() for g in part)

