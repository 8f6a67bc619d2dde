"""Firing and non-firing fixtures for the OBS/RES rules."""


class TestOBS001UnclosedSpan:
    def test_fires_on_discarded_start(self, check):
        src = """
            def bind(tracer):
                tracer.start("bind")
        """
        assert len(check(src, rule="OBS001")) == 1

    def test_fires_on_assigned_never_finished(self, check):
        src = """
            def bind(tracer):
                span = tracer.start("bind")
                do_work()
        """
        assert len(check(src, rule="OBS001")) == 1

    def test_fires_on_discarded_span_helper(self, check):
        src = """
            def bind(tracer):
                tracer.span("bind")
        """
        assert len(check(src, rule="OBS001")) == 1

    def test_silent_when_finished(self, check):
        src = """
            def bind(tracer):
                span = tracer.start("bind")
                try:
                    do_work()
                finally:
                    span.finish()
        """
        assert check(src, rule="OBS001") == []

    def test_silent_when_span_escapes(self, check):
        # Ownership handed to the caller or a callback: not ours to close.
        src = """
            def open_span(self, tracer):
                span = tracer.start("bind")
                return span
        """
        assert check(src, rule="OBS001") == []

    def test_silent_on_with_span(self, check):
        src = """
            def bind(tracer):
                with tracer.span("bind") as s:
                    s.tag(x=1)
        """
        assert check(src, rule="OBS001") == []


class TestOBS002PrintInLibrary:
    def test_fires_in_library_code(self, check):
        src = """
            def schedule(job):
                print("scheduled", job)
        """
        assert len(check(src, rule="OBS002")) == 1

    def test_silent_in_report_cli(self, check):
        src = """
            def render(doc):
                print(doc)
        """
        assert check(src, rule="OBS002", relpath="src/repro/report/__main__.py") == []
        assert check(src, rule="OBS002", relpath="src/repro/viz/ascii_charts.py") == []


class TestOBS003DirectSpanAccess:
    def test_fires_on_tracer_spans(self, check):
        src = """
            def count_failed(tracer):
                return sum(
                    1 for s in tracer.spans if s.tags.get("state") == "FAILED"
                )
        """
        assert len(check(src, rule="OBS003")) == 1

    def test_fires_on_attribute_tracer(self, check):
        src = """
            def leaves(query):
                return [s.category for s in query.tracer.spans]
        """
        assert len(check(src, rule="OBS003")) == 1

    def test_silent_on_query_api(self, check):
        src = """
            def count_failed(tracer):
                return len(tracer.query().spans(tags={"state": "FAILED"}))
        """
        assert check(src, rule="OBS003") == []

    def test_silent_on_non_tracer_receiver(self, check):
        src = """
            def total(report):
                return len(report.spans)
        """
        assert check(src, rule="OBS003") == []

    def test_silent_inside_obs_layer(self, check):
        src = """
            def spans_of(tracer):
                return tracer.spans
        """
        assert check(src, rule="OBS003", relpath="src/repro/obs/query.py") == []
        # ...but the same read in any other layer fires.
        assert len(check(src, rule="OBS003")) == 1


class TestRES001SwallowedExcept:
    def test_fires_on_bare_except(self, check):
        src = """
            try:
                transfer()
            except:
                pass
        """
        assert len(check(src, rule="RES001")) == 1

    def test_fires_on_broad_swallow(self, check):
        src = """
            try:
                transfer()
            except Exception:
                pass
        """
        assert len(check(src, rule="RES001")) == 1

    def test_silent_on_narrow_handler(self, check):
        src = """
            try:
                transfer()
            except TransferError as exc:
                record(exc)
        """
        assert check(src, rule="RES001") == []

    def test_silent_on_broad_handler_that_acts(self, check):
        src = """
            try:
                transfer()
            except Exception as exc:
                record(exc)
                raise
        """
        assert check(src, rule="RES001") == []


class TestRES002HandRolledRetry:
    def test_fires_on_attempt_counter_loop(self, check):
        src = """
            def run(task):
                attempt = 0
                while attempt < 3:
                    try:
                        submit(task)
                        break
                    except Exception:
                        attempt += 1
        """
        assert len(check(src, rule="RES002")) == 1

    def test_fires_on_while_true_continue(self, check):
        src = """
            def run(task):
                while True:
                    try:
                        submit(task)
                        break
                    except Exception:
                        continue
        """
        assert len(check(src, rule="RES002")) == 1

    def test_silent_on_for_loop_skip(self, check):
        # Skip-to-next-item on failure is not a retry.
        src = """
            def collect(entries, cluster):
                out = []
                for node_id in entries:
                    try:
                        out.append(cluster.node(node_id))
                    except KeyError:
                        continue
                return out
        """
        assert check(src, rule="RES002") == []

    def test_silent_on_policy_driven_loop(self, check):
        src = """
            def run(task, policy):
                while True:
                    try:
                        submit(task)
                        break
                    except Exception as exc:
                        if not policy.should_retry(task.attempts, exc):
                            raise
        """
        assert check(src, rule="RES002") == []

    def test_fires_on_counter_loop_calling_an_unrelated_on_failure(self, check):
        # Only RetryPolicy's own methods exempt a loop.
        src = """
            def run(task, tracker):
                attempt = 0
                while attempt < 3:
                    try:
                        submit(task)
                        break
                    except Exception as exc:
                        tracker.on_failure(exc)
                        attempt += 1
        """
        assert len(check(src, rule="RES002")) == 1

    def test_silent_on_plain_iteration_named_entries(self, check):
        # "entries" must not token-match "tries".
        src = """
            def validate(entries):
                for entry in entries:
                    try:
                        check_entry(entry)
                    except ValueError:
                        raise
        """
        assert check(src, rule="RES002") == []
