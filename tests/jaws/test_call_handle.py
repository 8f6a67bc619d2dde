"""WDL calls run as callback handles, not one kernel process each.

A scatter of N shards costs N small objects driven by the events that
exist anyway (start, upstream outputs, the gate grant, the job's
completion).  These tests pin what the handles must keep from the
process-per-call engine: failure text, gate accounting, same-instant
submission order and readable sanitizer labels.
"""

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.jaws import CromwellEngine, EngineOptions, parse_wdl
from repro.jaws import engine as engine_mod
from repro.rm import BatchScheduler
from repro.sanitizer.core import _describe
from repro.simkernel import Environment, Resource


def make_engine(env, options=None, nodes=8):
    cluster = Cluster(env, pools=[(NodeSpec("c", cores=8, memory_gb=64), nodes)])
    batch = BatchScheduler(env, cluster)
    submitted = []
    submit = batch.submit

    def recording_submit(job):
        submitted.append((env.now, job.name))
        return submit(job)

    batch.submit = recording_submit
    return CromwellEngine(env, batch, options or EngineOptions()), submitted


def scatter_wdl(samples: int) -> str:
    return f"""
    version 1.0
    task work {{ input {{ Int x }} command <<< w >>> output {{ Int o = x }}
                runtime {{ runtime_minutes: 1 }} }}
    task after {{ input {{ Int y }} command <<< a >>> output {{ Int o = y }}
                 runtime {{ runtime_minutes: 1 }} }}
    workflow w {{
        scatter (i in range({samples})) {{
            call work {{ input: x = i }}
            call after {{ input: y = work.o }}
        }}
    }}
    """


#: Two shards of ``slow`` are killed at the 1 h walltime; ``after``
#: depends on them.
WALLTIME = """
version 1.0
task slow { input { Int x } command <<< s >>> output { Int o = x }
            runtime { runtime_minutes: 90 } }
task after { input { Int y } command <<< a >>> output { Int o = y }
             runtime { runtime_minutes: 1 } }
workflow w {
    scatter (i in range(4)) {
        call slow { input: x = i }
        call after { input: y = slow.o }
    }
}
"""


@pytest.fixture
def gates(monkeypatch):
    """Scatter gates the engine makes, each recording the most slots it
    ever held at once."""
    made = []

    class Gate(Resource):
        def __init__(self, env, capacity):
            super().__init__(env, capacity)
            self.peak = 0
            made.append(self)

        def _trigger_queued(self):
            super()._trigger_queued()
            self.peak = max(self.peak, self.count)

    monkeypatch.setattr(engine_mod, "Resource", Gate)
    return made


def test_large_scatter_starts_few_processes():
    env = Environment()
    started = []
    process = env.process

    def counting_process(generator, name=None):
        started.append(name)
        return process(generator, name=name)

    env.process = counting_process
    engine, _ = make_engine(env, nodes=64)
    result = engine.run(parse_wdl(scatter_wdl(200)))
    env.run(until=result.done)
    assert result.succeeded, result.error
    assert result.shard_count == 400
    assert len(started) <= 10, started


def test_walltime_kill_fails_the_run_and_nothing_downstream_submits():
    env = Environment()
    engine, submitted = make_engine(env, EngineOptions(default_walltime_s=3600))
    result = engine.run(parse_wdl(WALLTIME))
    env.run(until=result.done)
    assert not result.succeeded
    assert result.error == "call 'slow' failed: 'walltime'"
    assert result.t_end == 3600.0
    env.run()  # drains the rest without a SimulationError
    assert [name for _, name in submitted] == [f"w/slow[{i}]" for i in range(4)]


def test_gate_holds_at_most_the_cap_and_returns_every_slot(gates):
    env = Environment()
    engine, _ = make_engine(env, EngineOptions(max_scatter_concurrency=2))
    ok = engine.run(parse_wdl(scatter_wdl(6)))
    env.run(until=ok.done)
    assert ok.succeeded, ok.error
    [gate] = gates
    assert gate.peak == 2
    assert gate.count == 0 and gate.queue_length == 0

    env = Environment()
    engine, _ = make_engine(
        env, EngineOptions(max_scatter_concurrency=2, default_walltime_s=3600)
    )
    failed = engine.run(parse_wdl(WALLTIME))
    env.run(until=failed.done)
    assert not failed.succeeded
    env.run()
    gate = gates[-1]
    assert gate.peak == 2
    assert gate.count == 0 and gate.queue_length == 0


def test_join_on_two_upstreams_ending_together_keeps_submission_order():
    src = """
    version 1.0
    task left { command <<< l >>> output { String o = "l" } runtime { runtime_minutes: 2 } }
    task right { command <<< r >>> output { String o = "r" } runtime { runtime_minutes: 2 } }
    task join { input { String a  String b } command <<< j >>> output { String o = a }
                runtime { runtime_minutes: 1 } }
    workflow w {
        call left
        call right
        call join as ab { input: a = left.o, b = right.o }
        call join as ba { input: a = right.o, b = left.o }
        call join as bb { input: a = right.o, b = right.o }
    }
    """
    env = Environment()
    engine, submitted = make_engine(env)
    result = engine.run(parse_wdl(src))
    env.run(until=result.done)
    assert result.succeeded, result.error
    # left and right end at 133 s.  ``ab`` waited on left first, so it
    # re-binds there and queues on right behind ``ba`` and ``bb``: the
    # order the process-per-call engine submitted in.
    assert submitted == [
        (0.0, "w/left"), (0.0, "w/right"),
        (133.0, "w/ba"), (133.0, "w/bb"), (133.0, "w/ab"),
    ]


def test_call_started_mid_instant_submits_before_later_wakes():
    src = """
    version 1.0
    task a { command <<< a >>> output { Int n = 2 } runtime { runtime_minutes: 2 } }
    task c { command <<< c >>> output { Int n = 1 } runtime { runtime_minutes: 2 } }
    task s { input { Int x } command <<< s >>> output { Int o = x }
             runtime { runtime_minutes: 1 } }
    workflow w {
        call a
        call c
        scatter (i in range(a.n)) { call s { input: x = i } }
        call s as after_c { input: x = c.n }
    }
    """
    env = Environment()
    engine, submitted = make_engine(env)
    result = engine.run(parse_wdl(src))
    env.run(until=result.done)
    assert result.succeeded, result.error
    # a and c end together.  a's output starts the scatter, whose shards
    # start at URGENT priority, so they submit before c's output (queued
    # earlier in the same instant) wakes after_c.
    assert submitted[2:] == [(133.0, "w/s[0]"), (133.0, "w/s[1]"), (133.0, "w/after_c")]


def test_sanitizer_labels_name_the_call_and_shard():
    class Labels:
        def __init__(self):
            self.seen = []

        def begin_batch(self, t, batch):
            pass

        def begin_unit(self, index, event):
            self.seen.append(_describe(event))

        def end_batch(self):
            pass

    env = Environment()
    env.observer = labels = Labels()
    engine, _ = make_engine(env)
    result = engine.run(parse_wdl(scatter_wdl(3)))
    env.run(until=result.done)
    assert result.succeeded, result.error
    assert {"call:work[2]", "call:after[2]"} <= set(labels.seen)

