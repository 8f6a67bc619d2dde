"""Inline suppression semantics: justification required, typos caught."""


SRC_VIOLATION = """
    import random
    delay = random.random()  # simlint: disable=DET002 -- fixture: justified suppression
"""

SRC_NO_JUSTIFICATION = """
    import random
    delay = random.random()  # simlint: disable=DET002
"""

SRC_OWN_LINE = """
    import random
    # simlint: disable=DET002 -- fixture: own-line directive covers the next line
    delay = random.random()
"""

SRC_WRONG_LINE = """
    import random
    # simlint: disable=DET002 -- fixture: directive is two lines up, must not cover

    delay = random.random()
"""


class TestSuppression:
    def test_justified_suppression_silences_finding(self, lint):
        result = lint(SRC_VIOLATION)
        assert result.findings == []
        assert len(result.suppressed) == 1
        finding, sup = result.suppressed[0]
        assert finding.rule == "DET002"
        assert "justified suppression" in sup.justification

    def test_missing_justification_is_its_own_finding(self, lint):
        result = lint(SRC_NO_JUSTIFICATION)
        rules = sorted(f.rule for f in result.findings)
        # An unjustified directive suppresses nothing: the original
        # finding stays live and the directive itself is flagged.
        assert rules == ["DET002", "SUP001"]

    def test_own_line_directive_covers_next_line(self, lint):
        result = lint(SRC_OWN_LINE)
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_directive_does_not_reach_past_next_line(self, lint):
        result = lint(SRC_WRONG_LINE)
        assert [f.rule for f in result.findings] == ["DET002"]

    def test_unknown_rule_id_reported(self, lint):
        result = lint(
            "x = 1  # simlint: disable=DET999 -- fixture: rule id typo\n"
        )
        assert [f.rule for f in result.findings] == ["SUP002"]

    def test_multiple_rules_one_directive(self, lint):
        src = """
            import random, time
            x = random.random() + time.time()  # simlint: disable=DET001,DET002 -- fixture: both suppressed
        """
        result = lint(src)
        assert result.findings == []
        assert {f.rule for f, _ in result.suppressed} == {"DET001", "DET002"}

    def test_directive_inside_string_is_ignored(self, lint):
        src = '''
            DOC = "# simlint: disable=DET002"
        '''
        result = lint(src)
        assert result.findings == []
        assert result.suppressed == []

    def test_comment_naming_simlint_is_not_a_directive(self, lint):
        src = """
            # simlint keeps the simulator deterministic
            x = 1  # rules are configured under [tool.simlint]
        """
        result = lint(src)
        assert result.findings == []
        assert result.suppressed == []
        # A real directive attempt is still checked for its reason.
        result = lint("x = 1  # simlint: disable=DET002\n")
        assert [f.rule for f in result.findings] == ["SUP001"]

    def test_suppression_only_covers_named_rule(self, lint):
        src = """
            import time
            t = time.time()  # simlint: disable=DET002 -- fixture: wrong rule named
        """
        result = lint(src)
        assert [f.rule for f in result.findings] == ["DET001"]


class TestStackedDirectives:
    def test_stacked_own_line_directives_all_cover_the_code_line(self, lint):
        # Regression: the first directive used to cover exactly the
        # next physical line — the *second comment* — and silently
        # suppressed nothing.
        src = """
            import random, time
            # simlint: disable=DET001 -- fixture: first stacked directive
            # simlint: disable=DET002 -- fixture: second stacked directive
            x = random.random() + time.time()
        """
        result = lint(src)
        assert result.findings == []
        assert {f.rule for f, _ in result.suppressed} == {"DET001", "DET002"}

    def test_explanatory_comment_between_directive_and_code(self, lint):
        src = """
            import random
            # simlint: disable=DET002 -- fixture: replayed from a recorded seed
            # (the recording harness pins the stream)
            delay = random.random()
        """
        result = lint(src)
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_blank_line_detaches_stacked_directives(self, lint):
        src = """
            import random
            # simlint: disable=DET002 -- fixture: must not reach past the blank

            delay = random.random()
        """
        result = lint(src)
        assert [f.rule for f in result.findings] == ["DET002"]

    def test_dangling_directive_at_eof_covers_nothing(self, lint):
        src = """
            import random
            delay = random.random()
            # simlint: disable=DET002 -- fixture: dangling, no code follows
        """
        result = lint(src)
        assert [f.rule for f in result.findings] == ["DET002"]


class TestCommaSeparatedIds:
    def test_spaces_around_commas_are_tolerated(self, lint):
        src = """
            import random, time
            x = random.random() + time.time()  # simlint: disable=DET001 , DET002 -- fixture: spaced list
        """
        result = lint(src)
        assert result.findings == []
        assert {f.rule for f, _ in result.suppressed} == {"DET001", "DET002"}

    def test_typo_in_one_id_of_a_list_is_flagged(self, lint):
        # The valid id still works; the typo'd one is reported instead
        # of silently disabling nothing.
        src = """
            import random, time
            x = random.random() + time.time()  # simlint: disable=DET001,DTE002 -- fixture: transposed id
        """
        result = lint(src)
        rules = sorted(f.rule for f in result.findings)
        assert rules == ["DET002", "SUP002"]
        assert {f.rule for f, _ in result.suppressed} == {"DET001"}
        (sup2,) = [f for f in result.findings if f.rule == "SUP002"]
        assert "DTE002" in sup2.message

    def test_multi_rule_own_line_stack_mixed(self, lint):
        # One multi-rule directive stacked over a single-rule one.
        src = """
            import random, time
            # simlint: disable=DET001,DET002 -- fixture: both streams pinned
            # simlint: disable=OBS002 -- fixture: progress print
            print(random.random() + time.time())
        """
        result = lint(src)
        assert result.findings == []
        assert {f.rule for f, _ in result.suppressed} == {
            "DET001", "DET002", "OBS002",
        }
