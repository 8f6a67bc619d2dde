"""Firing and non-firing fixtures for every KERNEL rule."""


class TestKER001YieldlessProcess:
    def test_fires_on_yieldless_process_fn(self, check):
        src = """
            def work(env):
                env.timeout(5)

            def main(env):
                env.process(work(env))
        """
        assert len(check(src, rule="KER001")) == 1

    def test_silent_when_process_fn_yields(self, check):
        src = """
            def work(env):
                yield env.timeout(5)

            def main(env):
                env.process(work(env))
        """
        assert check(src, rule="KER001") == []

    def test_silent_on_unresolvable_target(self, check):
        # A function imported from elsewhere cannot be checked here.
        src = """
            from repro.somewhere import work

            def main(env):
                env.process(work(env))
        """
        assert check(src, rule="KER001") == []


class TestKER002BlockingSleep:
    def test_fires_on_time_sleep_in_process(self, check):
        src = """
            import time

            def work(env):
                time.sleep(1)
                yield env.timeout(1)
        """
        assert len(check(src, rule="KER002")) == 1

    def test_silent_on_simulated_wait(self, check):
        src = """
            def work(env):
                yield env.timeout(1)
        """
        assert check(src, rule="KER002") == []

    def test_silent_on_other_sleep_method(self, check):
        src = """
            def calm(driver):
                driver.sleep(1)
        """
        assert check(src, rule="KER002") == []


class TestKER003NonEventYield:
    def test_fires_on_literal_yield_in_process(self, check):
        src = """
            def work(env):
                yield env.timeout(1)
                yield 5
        """
        assert len(check(src, rule="KER003")) == 1

    def test_fires_on_bare_yield_in_process(self, check):
        src = """
            def work(env):
                yield env.timeout(1)
                yield
        """
        assert len(check(src, rule="KER003")) == 1

    def test_silent_on_pure_data_generator(self, check):
        # No event-like yields at all: a data generator, not a process.
        src = """
            def naturals():
                yield 1
                yield 2
        """
        assert check(src, rule="KER003") == []

    def test_silent_when_every_yield_is_an_event(self, check):
        src = """
            def work(env):
                yield env.timeout(1)
                yield env.timeout(2)
        """
        assert check(src, rule="KER003") == []


class TestKER004LeakedLease:
    def test_fires_on_request_without_release(self, check):
        src = """
            def work(env, gate):
                req = gate.request()
                yield req
                yield env.timeout(5)
        """
        found = check(src, rule="KER004")
        assert len(found) == 1
        assert "no .release()" in found[0].message

    def test_fires_on_release_outside_finally(self, check):
        src = """
            def work(env, gate):
                req = gate.request()
                yield req
                yield env.timeout(5)
                gate.release(req)
        """
        found = check(src, rule="KER004")
        assert len(found) == 1
        assert "finally" in found[0].message

    def test_silent_on_context_manager(self, check):
        src = """
            def work(env, gate):
                with gate.request() as req:
                    yield req
                    yield env.timeout(5)
        """
        assert check(src, rule="KER004") == []

    def test_silent_on_release_in_finally(self, check):
        src = """
            def work(env, gate):
                req = gate.request()
                yield req
                try:
                    yield env.timeout(5)
                finally:
                    gate.release(req)
        """
        assert check(src, rule="KER004") == []

    def test_scoped_out_of_tests(self, check):
        # Test code exercises raw request/release paths deliberately.
        src = """
            def test_queue(env, gate):
                req = gate.request()
                yield req
        """
        assert check(src, rule="KER004", relpath="tests/test_gate.py") == []


class TestKER005DirectHeapImport:
    KERNEL_MOD = "src/repro/simkernel/resources.py"

    def test_fires_on_plain_import_in_kernel(self, check):
        src = """
            import heapq

            def push(queue, item):
                heapq.heappush(queue, item)
        """
        found = check(src, rule="KER005", relpath=self.KERNEL_MOD)
        assert len(found) == 1
        assert "queueing" in found[0].message

    def test_fires_on_from_import_in_kernel(self, check):
        src = """
            from heapq import heappush, heappop
        """
        found = check(src, rule="KER005", relpath=self.KERNEL_MOD)
        assert len(found) == 1

    def test_silent_in_sanctioned_queueing_module(self, check):
        # queueing.py owns the one allowed heapq import.
        src = """
            import heapq

            def heap_push(heap, item):
                heapq.heappush(heap, item)
        """
        assert check(
            src, rule="KER005", relpath="src/repro/simkernel/queueing.py"
        ) == []

    def test_silent_outside_the_kernel(self, check):
        # heapq is fine in the schedulers, tests, benchmarks, ...
        src = """
            import heapq
        """
        for relpath in (
            "src/repro/rm/backfill.py",
            "tests/test_something.py",
            "benchmarks/perf/harness.py",
        ):
            assert check(src, rule="KER005", relpath=relpath) == []

    def test_silent_on_queueing_helper_import(self, check):
        # The sanctioned replacement itself must not trip the rule.
        src = """
            from repro.simkernel.queueing import heap_pop, heap_push
        """
        assert check(src, rule="KER005", relpath=self.KERNEL_MOD) == []


class TestKER006FixedIntervalPoll:
    def test_fires_on_poll_loop(self, check):
        src = """
            def run(self):
                while True:
                    yield self.env.timeout(5.0)
                    self._try_schedule()
        """
        found = check(src, rule="KER006")
        assert len(found) == 1
        assert "polling" in found[0].message

    def test_fires_on_int_interval(self, check):
        src = """
            def watch(env, pool):
                while True:
                    yield env.timeout(1)
                    pool.refresh()
        """
        assert len(check(src, rule="KER006")) == 1

    def test_silent_with_additional_wake_event(self, check):
        # Event-driven with a timeout fallback: the loop also waits on
        # the event that changes the polled state.
        src = """
            def run(self):
                while True:
                    yield self._wake | self.env.timeout(30.0)
                    self._wake = self.env.event()
                    self._try_schedule()
        """
        assert check(src, rule="KER006") == []

    def test_silent_on_variable_interval(self, check):
        # Backoff / configurable delays are not a fixed poll grid.
        src = """
            def run(self, env, delay):
                while True:
                    yield env.timeout(delay)
                    delay = delay * 2
        """
        assert check(src, rule="KER006") == []

    def test_silent_on_bounded_loop(self, check):
        # Only while-True loops are polls; a counted retry loop is not.
        src = """
            def run(env, attempts):
                while attempts > 0:
                    yield env.timeout(5.0)
                    attempts -= 1
        """
        assert check(src, rule="KER006") == []

    def test_silent_without_yields(self, check):
        src = """
            def spin(queue):
                while True:
                    if not queue:
                        break
                    queue.pop()
        """
        assert check(src, rule="KER006") == []

    def test_ignores_yields_in_nested_defs(self, check):
        # The helper generator's timeout yield belongs to the nested
        # def, not the while-True body.
        src = """
            def run(self):
                while True:
                    def ticker(env):
                        yield env.timeout(5.0)
                    yield self._wake
                    self._try_schedule()
        """
        assert check(src, rule="KER006") == []

    def test_scoped_out_of_tests_and_benchmarks(self, check):
        # Fixed-interval background load generators are legitimate
        # outside production scheduler code.
        src = """
            def load(env, sched):
                while True:
                    yield env.timeout(10.0)
                    sched.submit(make_job())
        """
        for relpath in ("tests/test_load.py", "benchmarks/perf/harness.py"):
            assert check(src, rule="KER006", relpath=relpath) == []
