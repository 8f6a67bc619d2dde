"""HPC batch scheduler: whole-node jobs, FIFO + EASY backfill.

This is the SLURM/LSF stand-in.  It intentionally knows nothing about
workflows: jobs are opaque (the "workflow-blind" baseline of §3).  The
EnTK pilot (§4) submits one big job here; JAWS task shards (§6) submit
many small ones.
"""

from __future__ import annotations

from typing import Optional

from repro.simkernel import Environment, Interrupt
from repro.cluster import Cluster, Node
from repro.cluster.node import TimedOccupant
from repro.rm.base import Job, JobState, ResourceRequest, SchedulerCore
from repro.rm.util import OrderedSet


class BatchScheduler(SchedulerCore):
    """FIFO batch scheduler with optional EASY backfill.

    Parameters
    ----------
    env, cluster:
        Simulation environment and the cluster to schedule onto.
    backfill:
        Enable EASY backfill: while the queue head waits for nodes,
        later jobs may run if they fit now and provably do not delay
        the head job's reservation (using walltime as the runtime bound).
    node_health:
        Optional :class:`~repro.resilience.NodeHealth`; quarantined
        nodes are excluded from every placement decision.

    Wakeups, the negative-fit rule and the avoid-set are the
    :class:`~repro.rm.base.SchedulerCore`'s; each pass's ``blocked`` set
    holds the :attr:`~repro.rm.base.ResourceRequest.placement_class` of
    every request that found no fit.  On top:

    - A duration-only job runs off a single kernel timer held by a
      :class:`_TimedJob` handle (``_direct_timers``), with no process
      of its own: no ``run:`` process and no payload process racing a
      walltime timeout.  The walltime verdict is decided
      arithmetically up front, which matches the outcome of the race,
      ties included.  Exactness scope: every job's start/end time,
      state and failure cause is preserved, except against a
      same-instant event scheduled after the job's timer.  The handle
      ends the job at its timer; the race ends it two dispatch rounds
      later in the same instant (the payload's end event, then the
      race condition's).  So jobs finishing at the *same instant* may
      return their nodes to the pool in a different within-instant
      order, which can permute *which* of several equally free nodes a
      same-instant scheduling pass grants (never whether, when, or how
      many — see ``tests/rm/test_differential.py``); and a node
      failure at the job's end instant whose timer was armed after the
      job's finds the job COMPLETED, where the race would still fail
      it (``tests/rm/test_timed_job.py``).  All golden scenario digests
      are byte-identical with the handle on.  ``work=`` jobs keep the
      ``run:`` process (:meth:`_run_job`).
    """

    #: Differential-test knob: the reference subclass turns this off to
    #: recover payload-process execution for every job.
    _direct_timers = True
    _component = "batch"
    _category = "rm.job"
    _queue_gauge = "queue_length"

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        backfill: bool = True,
        node_health=None,
    ):
        super().__init__(env, cluster, node_health)
        self.backfill = backfill
        self.queue: OrderedSet = OrderedSet()
        #: Queued jobs with afterok dependencies — the only ones the
        #: doomed-job sweep has to look at.
        self._dep_queued: OrderedSet = OrderedSet()

    def ckpt_fingerprint(self) -> dict:
        return {**super().ckpt_fingerprint(), "queued": len(self.queue)}

    # -- client API ------------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Enqueue a job; ``job.completion`` triggers at terminal state."""
        self._admit(
            job,
            self.queue,
            {"job": job.name, "user": job.user, "nodes": job.request.nodes},
        )
        if job.depends_on:
            self._dep_queued.append(job)
        return job

    def cancel(self, job: Job) -> None:
        """Remove a still-queued job (running jobs are not preempted);
        the freed queue position is offered to the jobs behind it."""
        if job in self.queue:
            self._cancel(job, wake=True)

    def _cancel(self, job: Job, wake: bool = False) -> None:
        self.queue.remove(job)
        self._dep_queued.discard(job)
        job.state = JobState.CANCELLED
        self.env.tracer.instant(
            "cancel", category=self._category, component=self._component,
            tags={"job": job.name},
        )
        self._set_queue_gauge(len(self.queue))
        self._retire(job, wake)

    @property
    def queue_length(self) -> int:
        return len(self.queue)

    # -- scheduling loop ------------------------------------------------------------

    def _scheduler_loop(self):
        yield from self._run_passes()

    def _dependency_state(self, job: Job) -> str:
        """'ready' | 'waiting' | 'doomed' for afterok dependencies."""
        state = "ready"
        for dep in job.depends_on:
            if dep.state == JobState.COMPLETED:
                continue
            if dep.state.terminal:  # failed or cancelled
                return "doomed"
            state = "waiting"
        return state

    def _cancel_doomed(self) -> None:
        """Cancel queued jobs whose afterok dependencies failed (inside
        a pass, so no extra wake)."""
        if not self._dep_queued:
            return
        for job in list(self._dep_queued):
            if self._dependency_state(job) == "doomed":
                self._cancel(job)

    def _first_eligible(self) -> Optional[Job]:
        for job in self.queue:
            if not job.depends_on or self._dependency_state(job) == "ready":
                return job
        return None

    def _free_nodes_for(
        self, request: ResourceRequest, blocked: set, exclude=()
    ) -> Optional[list[Node]]:
        """First-fit free nodes for ``request`` outside the avoid-set
        and the node ids in ``exclude``, or ``None``.  ``blocked`` is
        the pass's set of placement classes with no fit."""
        key = request.placement_class
        if key in blocked:
            return None
        avoid = self._avoid_ids()
        nodes = self.cluster.free_pool.first_fit(
            request.cores_per_node,
            request.gpus_per_node,
            request.memory_gb_per_node,
            request.nodes,
            avoid | exclude if exclude else avoid,
        )
        if nodes is None and not exclude and self._memoize:
            blocked.add(key)
        return nodes

    def _try_schedule(self) -> None:
        self._cancel_doomed()
        # FIFO order is queue order, so walk the indexed queue lazily
        # instead of materializing the eligible list every pass.
        # Dependency states cannot change mid-pass (completions arrive
        # via separate events), so per-job eligibility is stable here.
        blocked: set = set()
        head = self._first_eligible()
        while head is not None:
            nodes = self._free_nodes_for(head.request, blocked)
            if nodes is None:
                break
            self._start(head, nodes)
            head = self._first_eligible()
        if head is None or not self.backfill:
            return
        if not self.cluster.free_pool:
            # Zero idle nodes: no backfill candidate could start, so the
            # reservation walk would be pure overhead.  This is the
            # steady state of a saturated cluster — most wakeups exit
            # here in O(1).
            return
        self._backfill(head, blocked)

    def _backfill(self, head: Job, blocked: set) -> None:
        # EASY backfill: reserve for the head, let later jobs squeeze in.
        shadow, reserved = self._head_reservation(head)
        free_pool = self.cluster.free_pool
        for job in [j for j in self.queue if j is not head]:
            if not free_pool:
                break  # every remaining fit check would come up empty
            if job.depends_on and self._dependency_state(job) != "ready":
                continue
            nodes = self._free_nodes_for(job.request, blocked, exclude=reserved)
            if nodes is None:
                nodes = self._free_nodes_for(job.request, blocked)
                if nodes is None:
                    continue
                # Using reserved nodes is fine only if we finish before
                # the head could start.
                if self.env.now + job.request.walltime_s > shadow + 1e-9:
                    continue
            self._start(job, nodes)

    def _head_reservation(self, head: Job) -> tuple[float, set]:
        """(shadow start time, node ids reserved for the head job).

        Counts the non-quarantined free nodes, then walks running jobs
        in projected-end order, freeing their nodes until the head's
        request fits; the fit time is the shadow.
        """
        avoid = self._avoid_ids()
        pool = {
            n.id
            for n in self.cluster.free_pool.iter_matching(
                head.request.cores_per_node,
                head.request.gpus_per_node,
                head.request.memory_gb_per_node,
            )
            if n.id not in avoid
        }
        if len(pool) >= head.request.nodes:
            # Head fits now in principle (race with in-flight starts);
            # reserve the first-fit set immediately.
            return self.env.now, set(sorted(pool)[: head.request.nodes])
        ending = sorted(
            (j for j in self.running if j.start_time is not None),
            key=lambda j: j.start_time + j.request.walltime_s,
        )
        for j in ending:
            for n in j.nodes:
                if self._node_satisfies(n, head.request):
                    pool.add(n.id)
            if len(pool) >= head.request.nodes:
                shadow = j.start_time + j.request.walltime_s
                return shadow, set(sorted(pool)[: head.request.nodes])
        # Not satisfiable from running jobs either; reserve nothing and
        # disallow delay-free backfill beyond current free nodes.
        return float("inf"), set()

    @staticmethod
    def _node_satisfies(node: Node, request: ResourceRequest) -> bool:
        spec = node.spec
        return (
            spec.cores >= request.cores_per_node
            and spec.gpus >= request.gpus_per_node
            and spec.memory_gb >= request.memory_gb_per_node - 1e-9
        )

    # -- job execution ---------------------------------------------------------------

    def _start(self, job: Job, nodes: list[Node]) -> None:
        self._launch(job, self.queue, {"user": job.user, "nodes": len(nodes)})
        self._dep_queued.discard(job)
        job.nodes = list(nodes)
        # Allocate synchronously so the scheduling pass that picked these
        # nodes cannot hand them to another job before the run process
        # gets a turn.
        allocs = [
            node.allocate(
                cores=node.spec.cores,  # whole-node grant
                gpus=node.spec.gpus,
                memory_gb=node.spec.memory_gb,
                owner=job.job_id,
            )
            for node in nodes
        ]
        if job.work is None and self._direct_timers:
            _TimedJob(self, job, allocs)
        else:
            self.env.process(self._run_job(job, allocs), name=f"run:{job.job_id}")

    def _run_job(self, job: Job, allocs):
        """The ``run:`` process of a ``work=`` job (and, with
        ``_direct_timers`` off, of every job): a payload process raced
        against a walltime timeout.  This is also the reference
        semantics :class:`_TimedJob` reproduces."""
        request = job.request
        tracked_cores, tracked_gpus = _whole_node_totals(job.nodes)
        self.cluster.track_acquire(cores=tracked_cores, gpus=tracked_gpus)

        me = self.env.active_process
        for node in job.nodes:
            node.register_occupant(job.job_id, me)

        payload = self.env.process(self._payload(job), name=f"payload:{job.job_id}")
        walltime = self.env.timeout(request.walltime_s)
        try:
            # simlint: disable=RES002 -- not a retry: pilot jobs absorb node-death interrupts and keep waiting on the survivors; task-level retries go through RetryPolicy in the engines
            while True:
                try:
                    yield self.env.any_of([payload, walltime])
                except Interrupt as intr:
                    # A node under this job died.  Resilient (pilot)
                    # jobs shrug and keep running on the survivors;
                    # plain jobs fail.
                    if job.resilient and payload.is_alive:
                        job.nodes = [n for n in job.nodes if n.is_up]
                        continue
                    job.state = JobState.FAILED
                    job.failure_cause = intr.cause
                    if payload.is_alive:
                        payload.interrupt(cause=intr.cause)
                    break
                if payload.is_alive:  # walltime fired first
                    payload.interrupt(cause="walltime")
                    job.state = JobState.FAILED
                    job.failure_cause = "walltime"
                elif payload.ok:
                    job.state = JobState.COMPLETED
                else:
                    job.state = JobState.FAILED
                    job.failure_cause = payload.value
                break
        except BaseException as exc:  # payload raised (propagated via any_of)
            job.state = JobState.FAILED
            job.failure_cause = exc
        finally:
            for node in job.nodes:
                node.unregister_occupant(job.job_id)
            for alloc in allocs:
                alloc.release()
            self.cluster.track_release(cores=tracked_cores, gpus=tracked_gpus)
            self._retire(job)

    def _payload(self, job: Job):
        """The job's actual work, scaled by the slowest granted node."""
        inner = None
        try:
            if job.duration is not None:
                speed = min(n.effective_speed for n in job.nodes)
                yield self.env.timeout(job.duration / speed)
            else:
                inner = self.env.process(
                    job.work(self.env, job, job.nodes), name=f"work:{job.job_id}"
                )
                yield inner
        except Interrupt as intr:
            # Killed by walltime or node failure; propagate into the
            # work generator so it can clean up, absorbing its outcome.
            if inner is not None and inner.is_alive:
                inner.interrupt(cause=intr.cause)
                try:
                    yield inner
                # simlint: disable=RES001 -- kill-path drain: the payload's outcome is irrelevant once the job is failed; the cause was already classified from the interrupt
                except BaseException:
                    pass
            return


def _whole_node_totals(nodes: list) -> tuple[int, int]:
    """(cores, gpus) of whole-node grants on ``nodes``."""
    if len(nodes) == 1:  # the overwhelmingly common shape
        spec = nodes[0].spec
        return spec.cores, spec.gpus
    return sum(n.spec.cores for n in nodes), sum(n.spec.gpus for n in nodes)


class _TimedJob(TimedOccupant):
    """The run of a fixed-``duration`` job: one kernel timer, no process.

    A duration job's outcome is pure arithmetic: the payload either
    ends by the walltime or it does not.  So the handle arms ONE timer
    at ``min(run_s, walltime_s)``, with the verdict decided up front.
    ``run_s <= walltime_s`` completes the job, as the reference race
    does at a tie: its walltime timeout fires first, but the job
    process only looks once that condition's own event is dispatched,
    and by then the payload has returned too.  The timer is never
    recomputed on node loss, exactly like the reference payload's
    one-shot timeout.  Registered with its nodes under the job id; see
    :class:`BatchScheduler` for the exactness scope.
    """

    __slots__ = ("sched", "job", "allocs", "cores", "gpus")

    def __init__(self, sched: BatchScheduler, job: Job, allocs: list):
        self.sched = sched
        self.job = job
        self.allocs = allocs
        super().__init__(sched.env)

    @property
    def name(self) -> str:
        """Label of this job's dispatch units in sanitizer reports."""
        return f"run:{self.job.job_id}"

    def _start(self, _event) -> None:
        job = self.job
        nodes = job.nodes
        self.cores, self.gpus = _whole_node_totals(nodes)
        self.sched.cluster.track_acquire(cores=self.cores, gpus=self.gpus)
        for node in nodes:
            node.register_occupant(job.job_id, self)
        if len(nodes) == 1:
            only = nodes[0]
            speed = only.spec.speed / only.slowdown
        else:
            speed = min(n.effective_speed for n in nodes)
        run_s = job.duration / speed
        walltime_s = job.request.walltime_s
        if run_s <= walltime_s:
            self._arm(run_s)
        else:
            self._arm(walltime_s, "walltime")

    def _absorbs(self, cause) -> bool:
        # A resilient job absorbs a node death and keeps waiting on the
        # same timer with the survivors.
        job = self.job
        if job.resilient:
            job.nodes = [n for n in job.nodes if n.is_up]
        return job.resilient

    def _finish(self, cause) -> None:
        job = self.job
        job.state = JobState.COMPLETED if cause is None else JobState.FAILED
        for node in job.nodes:
            node.unregister_occupant(job.job_id)
        for alloc in self.allocs:
            alloc.release()
        self.sched.cluster.track_release(cores=self.cores, gpus=self.gpus)
        job.failure_cause = cause
        self.sched._retire(job)
