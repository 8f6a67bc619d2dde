"""simsan dynamic layer: drive-loop equivalence, race detection, and
the permutation checker's verdict ladder."""

import json
from pathlib import Path

import pytest

from repro.sanitizer import WatchedDict, enable_sanitizer, disable_sanitizer
from repro.sanitizer import hooks
from repro.sanitizer.permute import classify
from repro.simkernel import Environment, SimulationError

from tests.sanitizer import fixture_race


class TestDriveEquivalence:
    def test_sanitized_run_matches_plain_run(self):
        # Same scenario, plain loop vs instrumented drive: identical
        # trace, including the timestamps the decider's race feeds.
        plain = fixture_race.trace()
        env = Environment()
        enable_sanitizer(env)
        sanitized = fixture_race.trace(env)
        assert sanitized == plain

    def test_disable_restores_plain_loop(self):
        env = Environment()
        enable_sanitizer(env)
        disable_sanitizer(env)
        assert env.observer is None
        fixture_race.trace(env)  # runs the untouched hot loop

    def test_hooks_inactive_outside_drive(self):
        env = Environment()
        san = enable_sanitizer(env)
        fixture_race.trace(env)
        assert hooks.ACTIVE is None  # restored by end_batch()
        assert san.batches > 0

        def tick(env):
            yield env.timeout(1.0)

        # run(until=event) stopping mid-batch: the three completions at
        # t=1 form one batch, and the stop fires on its first unit.
        env = Environment()
        enable_sanitizer(env)
        procs = [env.process(tick(env), name=f"p{i}") for i in range(3)]
        env.run(until=procs[0])
        assert hooks.ACTIVE is None
        assert not procs[2].processed
        env.run()
        assert hooks.ACTIVE is None
        assert all(p.processed for p in procs)

        # A propagating SimulationError.
        def boom(env):
            yield env.timeout(1.0)
            raise KeyError("boom")

        env = Environment()
        enable_sanitizer(env)
        env.process(boom(env), name="boom")
        env.process(tick(env), name="tick")
        with pytest.raises(SimulationError):
            env.run()
        assert hooks.ACTIVE is None

    def test_watched_dict_is_plain_dict_when_inactive(self):
        d = WatchedDict(label="x")
        d["k"] = 1
        d.setdefault("j", 2)
        d.update(m=3)
        del d["m"]
        assert d == {"k": 1, "j": 2}


class TestRaceDetection:
    def _run(self, permute=None, seed=0):
        env = Environment()
        san = enable_sanitizer(env, permute=permute, seed=seed)
        fixture_race.trace(env)
        return san

    def test_injected_race_is_reported(self):
        san = self._run()
        races = [r for r in san.races if r.member == "winner"]
        assert len(races) == 1
        (race,) = races
        assert race.container == "shared-config#0"
        assert {u.split(":", 1)[1] for u in race.units} == {"writer-a", "writer-b"}
        assert set(race.values) == {"'a'", "'b'"}
        assert race.t == 0.0

    def test_race_report_renders_and_serializes(self):
        san = self._run()
        (race,) = [r for r in san.races if r.member == "winner"]
        text = race.render()
        assert "write-write" in text and "shared-config#0[winner]" in text
        doc = json.loads(json.dumps(race.to_json()))
        assert doc["member"] == "winner"

    def test_report_shape(self):
        san = self._run()
        report = san.report()
        assert report["batches"] >= 1
        assert report["units"] >= 3
        assert report["records"] >= 2
        assert len(report["races"]) == 1

    def test_detected_under_permutation_too(self):
        for mode in ("reverse", "shuffle"):
            san = self._run(permute=mode, seed=3)
            assert [r.member for r in san.races] == ["winner"]

    def test_same_value_writes_are_benign(self):
        shared = WatchedDict(label="agree")

        def writer(env):
            shared["k"] = "same"
            yield env.timeout(1.0)

        env = Environment()
        san = enable_sanitizer(env)
        env.process(writer(env), name="w1")
        env.process(writer(env), name="w2")
        env.run(until=5.0)
        assert san.races == []

    def test_single_unit_rewrites_are_benign(self):
        shared = WatchedDict(label="solo")

        def writer(env):
            shared["k"] = 1
            shared["k"] = 2
            yield env.timeout(1.0)

        env = Environment()
        san = enable_sanitizer(env)
        env.process(writer(env), name="only")
        env.run(until=5.0)
        assert san.races == []

    def test_producer_consumer_handoff_not_flagged(self):
        # One unit appends to a shared OrderedSet, a later unit of the
        # same batch takes the item out: dataflow, not a race.
        from repro.rm.util import OrderedSet

        queue = OrderedSet()
        item = type("Job", (), {"name": "job-0"})()

        def producer(env):
            queue.append(item)
            yield env.timeout(1.0)

        def consumer(env):
            if item in queue:
                queue.remove(item)
            yield env.timeout(1.0)

        env = Environment()
        san = enable_sanitizer(env)
        env.process(producer(env), name="producer")
        env.process(consumer(env), name="consumer")
        env.run(until=5.0)
        assert san.races == []

    def test_double_enqueue_is_an_order_warning(self):
        from repro.rm.util import OrderedSet

        queue = OrderedSet()

        def enqueue(env, item):
            queue.append(item)
            yield env.timeout(1.0)

        first = type("Job", (), {"name": "job-a"})()
        second = type("Job", (), {"name": "job-b"})()
        env = Environment()
        san = enable_sanitizer(env)
        env.process(enqueue(env, first), name="e1")
        env.process(enqueue(env, second), name="e2")
        env.run(until=5.0)
        # Two units each insert a different item: the queue's iteration
        # order now depends on batch order.  Demoted to a warning (not
        # a race): concurrent submitters are a legitimate pattern whose
        # convergence the permutation checker verifies end-to-end.
        assert san.races == []
        assert [r.member for r in san.order_warnings] == ["<order>"]
        assert set(san.order_warnings[0].values) == {"'job-a'", "'job-b'"}

    def test_rejects_unknown_permute_mode(self):
        env = Environment()
        with pytest.raises(ValueError):
            enable_sanitizer(env, permute="sideways")


class TestPermutationSemantics:
    def test_reverse_flips_same_instant_batch(self):
        order = []

        def proc(env, tag):
            order.append(tag)
            yield env.timeout(1.0)

        env = Environment()
        enable_sanitizer(env, permute="reverse")
        for tag in ("a", "b", "c"):
            env.process(proc(env, tag), name=tag)
        env.run(until=5.0)
        assert order == ["c", "b", "a"]

    def test_shuffle_is_seed_deterministic(self):
        def run(seed):
            order = []

            def proc(env, tag):
                order.append(tag)
                yield env.timeout(1.0)

            env = Environment()
            enable_sanitizer(env, permute="shuffle", seed=seed)
            for tag in "abcdefgh":
                env.process(proc(env, tag), name=tag)
            env.run(until=5.0)
            return order

        assert run(7) == run(7)
        assert run(7) != list("abcdefgh")

    def test_injected_race_diverges_under_permutation(self):
        base = fixture_race.trace()
        env = Environment()
        enable_sanitizer(env, permute="reverse")
        permuted = fixture_race.trace(env)
        verdict, detail = classify(base, permuted)
        assert verdict == "divergent"
        assert "first divergent event" in detail
        assert "decision" in detail  # names the span that moved


class TestClassify:
    def _span(self, **kw):
        rec = {
            "type": "span", "cat": "c", "comp": "m", "events": [],
            "id": 0, "parent": None, "name": "s", "t0": 0.0, "t1": 1.0,
            "tags": {},
        }
        rec.update(kw)
        return rec

    def _text(self, records):
        return "\n".join(json.dumps(r, sort_keys=True) for r in records)

    def test_identical(self):
        text = self._text([self._span()])
        assert classify(text, text) == ("identical", "")

    def test_reordered_span_ids(self):
        a = self._text([
            self._span(id=0, name="x"),
            self._span(id=1, name="y", parent=0),
        ])
        b = self._text([
            self._span(id=0, name="y", parent=1),
            self._span(id=1, name="x"),
        ])
        assert classify(a, b) == ("reordered", "")

    def test_relabeled_workers(self):
        a = self._text([
            self._span(id=0, name="f1", tags={"worker": "i-0"}),
            self._span(id=1, name="f2", t1=2.0, tags={"worker": "i-1"}),
        ])
        b = self._text([
            self._span(id=0, name="f1", tags={"worker": "i-1"}),
            self._span(id=1, name="f2", t1=2.0, tags={"worker": "i-0"}),
        ])
        assert classify(a, b) == ("relabeled", "")

    def test_divergent_timestamp(self):
        a = self._text([self._span(t1=1.0)])
        b = self._text([self._span(t1=2.0)])
        verdict, detail = classify(a, b)
        assert verdict == "divergent"
        assert "first divergent event at index 0" in detail
        assert '"t1": 1.0' in detail and '"t1": 2.0' in detail


class TestStaticLayerSeesFixture:
    def test_race001_flags_the_injected_race(self):
        # The same positive control, through the static pass: lint the
        # fixture's source as if it lived under src/repro/.
        from repro.lint.engine import lint_source

        src = Path(fixture_race.__file__).read_text()
        result = lint_source(src, relpath="src/repro/fixture_race.py")
        race1 = [f for f in result.findings if f.rule == "RACE001"]
        assert len(race1) == 2
        blob = " ".join(f.message for f in race1)
        assert "writer_a" in blob and "writer_b" in blob
