"""Differential tests: scheduler fast paths vs reference behavior.

The event-driven PR gave both schedulers fast paths that change cost,
not decisions:

- **coalesced wakeups + the pass-local blocked set** (``_memoize``),
  which skip whole scheduling passes and, within a pass, the placement
  scans of a class that already found no fit.
  Contract: *fully* identical — same placements (node identity
  included), timings, states.
- **the duration-job direct timer** in :class:`BatchScheduler`
  (``_direct_timers``), replacing the payload-process/walltime race
  with one kernel timeout.  Contract: whenever no two jobs complete at
  the same simulated instant, the result is *fully* identical.  At a
  same-instant completion collision, the jobs release their nodes in a
  different within-instant order than the legacy race chain, so which
  of several equally free nodes a concurrent pass grants can permute —
  and under EASY backfill that identity feeds the head job's
  reservation, permuting between two equally valid FIFO+backfill
  schedules.  The continuous-duration workloads below make collisions
  measure-zero and assert full identity; the golden digests
  (tests/golden, which DO contain collision-heavy scenarios) stay
  byte-identical with the fast path on, pinning the curated behavior.
- **one pass per wake** in :class:`KubeScheduler`: prioritize once and
  walk the order once, where the reference ``RestartKube`` re-orders
  and restarts after every bind.  Contract: fully identical.

Each fast path is a class attribute, so a trivial subclass recovers
the reference pass-per-wakeup / race-per-job behavior.  These tests
run seeded randomized workloads through both and assert the contracts
above — the acceptance argument that coalescing and the blocked set make
identical placement decisions to pass-per-wakeup scheduling.
"""

import random

import pytest

from repro.cluster import Cluster, FaultInjector, FreeNodePool, Node, NodeSpec
from repro.cws import CWSI, TaremaAllocator
from repro.cws.experiment import DEFAULT_POOLS
from repro.engines import NextflowLikeEngine
from repro.resilience import NodeHealth
from repro.rm import BatchScheduler, Job, JobState, KubeScheduler, ResourceRequest
from repro.rm.kube import Pod, SchedulingStrategy
from repro.simkernel import Environment
from repro.workloads import workflow_mix


class ReferenceBatch(BatchScheduler):
    """Pre-fast-path batch scheduler: full scans, job-process races."""

    _direct_timers = False
    _memoize = False


class CoalescedOnlyBatch(BatchScheduler):
    """Blocked-set, coalesced scheduling over the legacy execution shape —
    isolates the scheduling fast path from the direct-timer change."""

    _direct_timers = False
    _memoize = True


class ReferenceKube(KubeScheduler):
    """Pre-fast-path kube scheduler: every pass scans every pod."""

    _memoize = False


class RestartKube(KubeScheduler):
    """Pre-one-pass kube scheduler: re-prioritizes the pending pods and
    restarts its walk after every bind."""

    def _try_schedule(self) -> None:
        deadline = float("inf")
        progressed = True
        while progressed:
            progressed = False
            if not self.pending:
                break
            ordered = self.strategy.prioritize(list(self.pending), self)
            avoid = self._avoid_ids()
            blocked = set()
            for pod in ordered:
                key = (pod.cores, pod.gpus, pod.memory_gb)
                if key in blocked:
                    continue
                candidates = [
                    n
                    for n in self.cluster.nodes
                    if n.id not in avoid
                    and n.fits(pod.cores, pod.gpus, pod.memory_gb)
                ]
                if not candidates:
                    blocked.add(key)
                    continue
                node = self.strategy.select_node(pod, candidates, self)
                if node is None:
                    when = self.strategy.wake_deadline_s(pod, self)
                    if when is not None and self.env.now < when < deadline:
                        deadline = when
                    continue
                self._bind(pod, node)
                progressed = True
                break
        if deadline < self._deadline_armed_at:
            self._deadline_armed_at = deadline
            self.env.process(self._deadline_wake(deadline), name="kube-deadline")


class BiggestFirstStrategy(SchedulingStrategy):
    """Reprioritizes every cycle: largest pods get first pick."""

    name = "biggest-first"

    def prioritize(self, pending, scheduler):
        return sorted(pending, key=lambda p: (-p.cores, -p.memory_gb))


class PatientStrategy(SchedulingStrategy):
    """Delay scheduling: a pod declines every node but ``k-00000`` for
    up to ``PATIENCE_S`` after submission, then takes the best fit."""

    name = "patient"
    PATIENCE_S = 6.0

    def select_node(self, pod, candidates, scheduler):
        for node in candidates:
            if node.id == "k-00000":
                return node
        if scheduler.env.now < pod.submit_time + self.PATIENCE_S:
            return None
        return super().select_node(pod, candidates, scheduler)

    def wake_deadline_s(self, pod, scheduler):
        return pod.submit_time + self.PATIENCE_S


def quarantines(*node_ids, first_at=15.0, every=20.0):
    """Env setup that quarantines ``node_ids`` one by one, so the
    avoid-set grows mid-run and shrinks again on probation release."""

    def setup(env, cluster, health):
        def strikes():
            yield env.timeout(first_at)
            for node_id in node_ids:
                for _ in range(health.strikes):
                    health.record_failure(node_id)
                yield env.timeout(every)

        env.process(strikes(), name="strikes")

    return setup


# -- workload generation ----------------------------------------------------------


def batch_workload(seed, n_jobs=60):
    """Seeded job specs: mixed sizes, some walltime kills, staggered
    arrivals, a sprinkle of resilient jobs."""
    rng = random.Random(seed)
    specs = []
    for i in range(n_jobs):
        duration = rng.choice([5, 10, 30, 60, 120, 240])
        # ~1 in 6 jobs exceeds its walltime and gets killed.
        walltime = duration * rng.choice([2, 2, 3, 4, 4, 0.5])
        specs.append(
            dict(
                nodes=rng.choice([1, 1, 1, 2, 3]),
                cores=rng.choice([1, 2, 4, 8]),
                walltime_s=max(walltime, 1.0),
                duration=duration,
                resilient=rng.random() < 0.2,
                gap=rng.choice([0.0, 0.0, 1.0, 5.0, 17.0]),
            )
        )
    return specs


def batch_workload_continuous(seed, n_jobs=60):
    """Like :func:`batch_workload` but with continuous durations, gaps
    and walltimes, so no two jobs ever complete at the same instant —
    the regime where the direct timer must be exactly equivalent."""
    rng = random.Random(seed)
    specs = []
    for i in range(n_jobs):
        duration = rng.uniform(4.0, 240.0)
        walltime = duration * rng.choice([2.1, 2.3, 3.7, 4.1, 0.53])
        specs.append(
            dict(
                nodes=rng.choice([1, 1, 1, 2, 3]),
                cores=rng.choice([1, 2, 4, 8]),
                walltime_s=max(walltime, 1.0),
                duration=duration,
                resilient=rng.random() < 0.2,
                gap=rng.uniform(0.0, 11.0),
            )
        )
    return specs


def run_batch(sched_cls, specs, env_setup=None, late_health=False, **policy):
    """Run ``specs`` through ``sched_cls(**policy)``; with
    ``late_health`` the health object is assigned after construction,
    the way the engines install theirs."""
    env = Environment()
    cluster = Cluster(env, pools=[(NodeSpec("n", cores=8, memory_gb=64), 6)])
    health = NodeHealth(env, strikes=2, probation_s=50.0)
    sched = sched_cls(
        env, cluster, node_health=None if late_health else health, **policy
    )
    if late_health:
        sched.node_health = health
    if env_setup is not None:
        env_setup(env, cluster, health)
    jobs = [
        Job(
            request=ResourceRequest(
                nodes=s["nodes"],
                cores_per_node=s["cores"],
                walltime_s=s["walltime_s"],
            ),
            duration=s["duration"],
            resilient=s["resilient"],
            name=f"j{i:03d}",
        )
        for i, s in enumerate(specs)
    ]

    def submitter():
        for job, s in zip(jobs, specs):
            if s["gap"]:
                yield env.timeout(s["gap"])
            sched.submit(job)

    env.process(submitter(), name="submitter")
    env.run()
    return [
        (
            j.name,
            j.state,
            tuple(n.id for n in j.nodes),
            j.start_time,
            j.end_time,
            j.failure_cause if isinstance(j.failure_cause, str) else None,
        )
        for j in jobs
    ]


def kube_workload(seed, n_pods=80):
    rng = random.Random(seed)
    specs = []
    for i in range(n_pods):
        specs.append(
            dict(
                cores=rng.choice([1, 1, 2, 4]),
                memory_gb=rng.choice([1.0, 2.0, 8.0]),
                duration=rng.choice([3, 10, 25, 70]),
                gap=rng.choice([0.0, 0.0, 0.0, 2.0, 9.0]),
            )
        )
    return specs


def run_kube(sched_cls, specs, env_setup=None, strategy=None, late_health=False):
    """Like :func:`run_batch`; ``strategy`` is a strategy class."""
    env = Environment()
    cluster = Cluster(env, pools=[(NodeSpec("k", cores=4, memory_gb=16), 4)])
    health = NodeHealth(env, strikes=2, probation_s=30.0)
    sched = sched_cls(
        env,
        cluster,
        strategy=strategy() if strategy is not None else None,
        node_health=None if late_health else health,
    )
    if late_health:
        sched.node_health = health
    if env_setup is not None:
        env_setup(env, cluster, health)
    pods = [
        Pod(
            cores=s["cores"],
            memory_gb=s["memory_gb"],
            duration=s["duration"],
            name=f"p{i:03d}",
        )
        for i, s in enumerate(specs)
    ]

    def submitter():
        for pod, s in zip(pods, specs):
            if s["gap"]:
                yield env.timeout(s["gap"])
            sched.submit(pod)

    env.process(submitter(), name="submitter")
    env.run()
    return [
        (p.name, p.state, p.node.id if p.node else None, p.start_time, p.end_time)
        for p in pods
    ]


# -- the differential assertions --------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
class TestBatchCoalescingDifferential:
    """Coalesced, blocked-set scheduling == pass-per-wakeup scheduling,
    down to node identity."""

    def test_identical_decisions(self, seed):
        specs = batch_workload(seed)
        coalesced = run_batch(CoalescedOnlyBatch, specs)
        ref = run_batch(ReferenceBatch, specs)
        assert coalesced == ref

    def test_identical_decisions_under_faults(self, seed):
        """Node deaths exercise resilient retries, recovery and
        quarantine release."""
        specs = batch_workload(seed, n_jobs=40)

        def inject(env, cluster, health):
            FaultInjector(
                env,
                cluster,
                schedule=[(40.0, "n-00001"), (90.0, "n-00003")],
                downtime=60.0,
            )

        coalesced = run_batch(CoalescedOnlyBatch, specs, env_setup=inject)
        ref = run_batch(ReferenceBatch, specs, env_setup=inject)
        assert coalesced == ref


@pytest.mark.parametrize("seed", range(6))
class TestBatchDirectTimerDifferential:
    """Collision-free workloads: the direct timer must reproduce the
    legacy race bit-for-bit, node identity included (see module
    docstring for the collision caveat)."""

    def test_identical_decisions(self, seed):
        specs = batch_workload_continuous(seed)
        fast = run_batch(BatchScheduler, specs)
        ref = run_batch(ReferenceBatch, specs)
        assert fast == ref

    def test_identical_decisions_under_faults(self, seed):
        specs = batch_workload_continuous(seed, n_jobs=40)

        def inject(env, cluster, health):
            FaultInjector(
                env,
                cluster,
                schedule=[(40.0, "n-00001"), (90.0, "n-00003")],
                downtime=60.0,
            )

        fast = run_batch(BatchScheduler, specs, env_setup=inject)
        ref = run_batch(ReferenceBatch, specs, env_setup=inject)
        assert fast == ref


@pytest.mark.parametrize("seed", range(6))
class TestKubeDifferential:
    """The kube scheduler's only fast path is coalesced scheduling
    with a blocked set, so the differential is full identity."""

    def test_identical_decisions(self, seed):
        specs = kube_workload(seed)
        fast = run_kube(KubeScheduler, specs)
        ref = run_kube(ReferenceKube, specs)
        assert fast == ref

    def test_identical_decisions_under_faults(self, seed):
        specs = kube_workload(seed, n_pods=50)

        def inject(env, cluster, health):
            FaultInjector(
                env, cluster, schedule=[(20.0, "k-00000")], downtime=30.0
            )

        fast = run_kube(KubeScheduler, specs, env_setup=inject)
        ref = run_kube(ReferenceKube, specs, env_setup=inject)
        assert fast == ref


@pytest.mark.parametrize("seed", range(6))
class TestBatchPolicyDifferential:
    """Every batch policy on the shared core: plain FIFO, health
    installed after construction, and a growing and shrinking avoid-set
    (a miss under it goes into the pass's blocked set)."""

    @pytest.mark.parametrize("policy", [dict(backfill=False)], ids=["fifo"])
    def test_identical_decisions(self, seed, policy):
        specs = batch_workload(seed)
        coalesced = run_batch(CoalescedOnlyBatch, specs, **policy)
        ref = run_batch(ReferenceBatch, specs, **policy)
        assert coalesced == ref

    @pytest.mark.parametrize("late_health", [False, True], ids=["ctor", "late"])
    def test_identical_decisions_under_quarantine(self, seed, late_health):
        specs = batch_workload(seed)
        setup = quarantines("n-00002", "n-00004", "n-00000")
        coalesced = run_batch(
            CoalescedOnlyBatch, specs, env_setup=setup, late_health=late_health
        )
        ref = run_batch(
            ReferenceBatch, specs, env_setup=setup, late_health=late_health
        )
        assert coalesced == ref


@pytest.mark.parametrize("seed", range(6))
class TestKubePolicyDifferential:
    """Kube strategies on the shared core: one that reorders the queue
    every cycle, one that declines and asks for a deadline wake, and a
    quarantine avoid-set installed before or after construction."""

    @pytest.mark.parametrize(
        "strategy", [BiggestFirstStrategy, PatientStrategy], ids=["reorder", "patient"]
    )
    def test_identical_decisions(self, seed, strategy):
        specs = kube_workload(seed)
        fast = run_kube(KubeScheduler, specs, strategy=strategy)
        ref = run_kube(ReferenceKube, specs, strategy=strategy)
        assert fast == ref

    @pytest.mark.parametrize("late_health", [False, True], ids=["ctor", "late"])
    def test_identical_decisions_under_quarantine(self, seed, late_health):
        specs = kube_workload(seed)
        setup = quarantines("k-00001", "k-00003", first_at=5.0, every=10.0)
        fast = run_kube(KubeScheduler, specs, env_setup=setup, late_health=late_health)
        ref = run_kube(ReferenceKube, specs, env_setup=setup, late_health=late_health)
        assert fast == ref


def run_cwsi_mix(sched_cls, seed, strategy):
    """Every workflow of a seeded ``workflow_mix`` at once on one CWSI
    scheduler, beside a few unlabelled pods; returns each task's and
    each pod's (state, node, start, end)."""
    env = Environment()
    cluster = Cluster(env, pools=list(DEFAULT_POOLS))
    sched = sched_cls(env, cluster)
    if strategy == "tarema":
        cwsi = CWSI(env, sched, strategy="fifo")
        sched.set_strategy(
            TaremaAllocator(cluster, cwsi.store, cwsi.runtime_predictor)
        )
    else:
        cwsi = CWSI(env, sched, strategy=strategy)
    engine = NextflowLikeEngine(env, sched, cwsi=cwsi)
    runs = [engine.run(wf) for wf in workflow_mix(seed=seed)]
    rng = random.Random(seed)
    pods = [
        Pod(cores=rng.choice([1, 2, 4]), duration=rng.choice([5, 20, 60]))
        for _ in range(6)
    ]

    def background():
        for pod in pods:
            yield env.timeout(rng.choice([0.0, 3.0, 11.0]))
            sched.submit(pod)

    env.process(background(), name="background")
    env.run()
    tasks = [
        (run.workflow.name, r.name, r.state, r.node_id, r.start_time, r.end_time)
        for run in runs
        for r in run.records.values()
    ]
    return tasks, [
        (p.state, p.node.id, p.start_time, p.end_time) for p in pods
    ]


@pytest.mark.parametrize("seed", range(3))
class TestKubeOnePassDifferential:
    """One pass per wake == re-prioritizing after every bind, down to
    node identity, under every workflow-aware ordering and under the
    reordering and declining strategies."""

    @pytest.mark.parametrize(
        "strategy", ["fifo", "rank", "filesize", "heft", "locality", "tarema"]
    )
    def test_identical_cwsi_schedules(self, seed, strategy):
        one_pass = run_cwsi_mix(KubeScheduler, seed, strategy)
        restart = run_cwsi_mix(RestartKube, seed, strategy)
        assert one_pass == restart
        assert all(t[2] == "completed" for t in one_pass[0])

    @pytest.mark.parametrize(
        "strategy", [BiggestFirstStrategy, PatientStrategy], ids=["reorder", "patient"]
    )
    def test_identical_pod_schedules(self, seed, strategy):
        specs = kube_workload(seed)
        one_pass = run_kube(KubeScheduler, specs, strategy=strategy)
        restart = run_kube(RestartKube, specs, strategy=strategy)
        assert one_pass == restart

    def test_identical_under_quarantine(self, seed):
        specs = kube_workload(seed)
        setup = quarantines("k-00001", "k-00003", first_at=5.0, every=10.0)
        one_pass = run_kube(KubeScheduler, specs, env_setup=setup)
        restart = run_kube(RestartKube, specs, env_setup=setup)
        assert one_pass == restart


class TestFastPathFlagsExist:
    """The knobs the differential relies on stay real attributes (a
    typo'd override would silently test fast vs fast)."""

    def test_flags(self):
        assert BatchScheduler._direct_timers is True
        assert BatchScheduler._memoize is True
        assert KubeScheduler._memoize is True
        assert ReferenceBatch._direct_timers is False
        assert ReferenceBatch._memoize is False
        assert CoalescedOnlyBatch._direct_timers is False
        assert ReferenceKube._memoize is False


def fit_checks_per_pass(sched_cls, monkeypatch, target, build):
    """Run ``build`` on a counting subclass of ``sched_cls`` and return,
    for each scheduling pass, how many times ``target`` (a ``(class,
    name)`` method) was called during it."""
    owner, name = target
    original = getattr(owner, name)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    per_pass = []

    class Counting(sched_cls):
        def _try_schedule(self):
            before = calls[0]
            super()._try_schedule()
            per_pass.append(calls[0] - before)

    build(Counting)
    return per_pass


class TestPassLocalBlockedSet:
    """Many pending units of one class that fits nowhere cost one fit
    scan per pass, not one per unit, and nothing is remembered between
    passes."""

    @staticmethod
    def kube_world(sched_cls):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("k", cores=4, memory_gb=16), 3)])
        sched = sched_cls(env, cluster)

        def submitter():
            for _ in range(4):
                for _ in range(10):
                    sched.submit(Pod(cores=8, duration=1.0))  # fits no node
                yield env.timeout(1.0)

        env.process(submitter(), name="submitter")
        env.run()
        assert len(sched.pending) == 40

    def test_kube_one_candidate_scan_per_pass(self, monkeypatch):
        fast = fit_checks_per_pass(
            KubeScheduler, monkeypatch, (Node, "fits"), self.kube_world
        )
        # The start-up pass sees no pods; then one scan of the three
        # nodes per pass, however many pods wait.
        assert fast == [0, 3, 3, 3, 3]
        monkeypatch.undo()
        ref = fit_checks_per_pass(
            ReferenceKube, monkeypatch, (Node, "fits"), self.kube_world
        )
        assert ref == [0, 30, 60, 90, 120]

    @staticmethod
    def batch_world(sched_cls):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=8, memory_gb=64), 4)])
        sched = sched_cls(env, cluster)
        # One node busy until t=100, so the 4-node head waits with a
        # reservation and backfill walks the queue behind it.
        sched.submit(Job(request=ResourceRequest(walltime_s=200), duration=100))
        head = Job(request=ResourceRequest(nodes=4, walltime_s=200), duration=10)
        sched.submit(head)

        def submitter():
            for _ in range(3):
                yield env.timeout(1.0)
                for _ in range(10):
                    # No node has a GPU: this class fits nowhere.
                    sched.submit(
                        Job(
                            request=ResourceRequest(gpus_per_node=1, walltime_s=5),
                            duration=1,
                        )
                    )

        env.process(submitter(), name="submitter")
        env.run(until=50)
        assert head.state == JobState.PENDING
        assert sched.queue_length == 31

    def test_batch_backfill_one_first_fit_per_pass(self, monkeypatch):
        fast = fit_checks_per_pass(
            BatchScheduler, monkeypatch, (FreeNodePool, "first_fit"), self.batch_world
        )
        # t=0: one pass, where the first job starts and the head
        # misses; the submits made before env.run() run no second one.
        # Each later pass: the head misses, then the first GPU job
        # misses outside the reservation and anywhere; the GPU jobs
        # behind it cost nothing.
        assert fast == [2, 3, 3, 3]
        monkeypatch.undo()
        ref = fit_checks_per_pass(
            ReferenceBatch, monkeypatch, (FreeNodePool, "first_fit"), self.batch_world
        )
        assert ref == [2, 21, 41, 61]

    def test_kube_submits_before_run_take_one_pass(self):
        pass_times = []

        class Timed(KubeScheduler):
            def _try_schedule(self):
                pass_times.append(self.env.now)
                super()._try_schedule()

        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("k", cores=4, memory_gb=16), 2)])
        sched = Timed(env, cluster)
        for _ in range(3):
            sched.submit(Pod(cores=4, duration=1.0))
        env.run()
        assert len(sched.finished) == 3
        # One pass at t=0 binds two pods; the two releases at t=1 wake
        # one pass for the third, whose release wakes one more at t=2.
        assert pass_times == [0.0, 1.0, 2.0]
