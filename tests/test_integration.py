"""Cross-subsystem integration tests.

Each test wires several packages together the way a downstream user
would, and checks an end-to-end observable — these are the scenarios
no single-module test covers.
"""

import numpy as np
import pytest

from repro.cluster import Cluster, FaultInjector, NodeSpec
from repro.core import TaskSpec, Workflow
from repro.cws import CWSI
from repro.data import File, FileCatalog, GB, MB, StorageSite, TransferService
from repro.engines import AirflowLikeEngine, ArgoLikeEngine, NextflowLikeEngine
from repro.resilience import RetryPolicy
from repro.rm import BatchScheduler, KubeScheduler
from repro.simkernel import Environment
from repro.workloads import bioinformatics_like, montage_like


class TestMultiEngineSameCluster:
    def test_three_engines_share_one_resource_manager(self):
        """Nextflow-like, Argo-like and Airflow-like workloads coexist
        on one scheduler without interference beyond queueing."""
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=8, memory_gb=64), 6)])
        sched = KubeScheduler(env, cluster)
        cwsi = CWSI(env, sched, strategy="rank")

        nf = NextflowLikeEngine(env, sched, cwsi=cwsi)
        argo = ArgoLikeEngine(env, sched)
        air = AirflowLikeEngine(env, sched, workers=2)

        runs = [
            nf.run(montage_like(width=5, seed=1, name="wf-nf")),
            argo.run(bioinformatics_like(samples=3, seed=2, name="wf-argo")),
            air.run(montage_like(width=4, seed=3, name="wf-air")),
        ]
        for run in runs:
            env.run(until=run.done)
        assert all(r.succeeded for r in runs)
        # CWSI only saw the workflow it was wired to.
        assert {t.workflow for t in cwsi.provenance.traces} == {"wf-nf"}

    def test_concurrent_workflows_one_engine(self):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=8, memory_gb=64), 4)])
        sched = KubeScheduler(env, cluster)
        cwsi = CWSI(env, sched, strategy="rank")
        engine = NextflowLikeEngine(env, sched, cwsi=cwsi)
        runs = [
            engine.run(montage_like(width=4, seed=s, name=f"wf{s}"))
            for s in range(3)
        ]
        env.run()
        assert all(r.succeeded for r in runs)
        # Cross-workflow provenance accumulated centrally (§3.3).
        workflows = {t.workflow for t in cwsi.provenance.traces}
        assert workflows == {"wf0", "wf1", "wf2"}
        # The predictor pooled history across workflows.
        assert cwsi.runtime_predictor.observations("concat") == 3


class TestFaultsAcrossTheStack:
    def test_workflow_survives_repeated_node_failures(self):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=32), 6)])
        sched = KubeScheduler(env, cluster)
        engine = NextflowLikeEngine(env, sched, retry_policy=RetryPolicy(max_retries=5))
        run = engine.run(bioinformatics_like(samples=6, seed=0))
        FaultInjector(
            env, cluster, mtbf=150.0, downtime=60.0,
            rng=np.random.default_rng(3),
        )
        env.run(until=run.done)
        assert run.succeeded
        assert run.retried_tasks()  # at least one retry happened

    def test_failed_attempts_recorded_in_provenance(self):
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=32), 2)])
        sched = KubeScheduler(env, cluster)
        cwsi = CWSI(env, sched, strategy="fifo")
        engine = NextflowLikeEngine(
            env, sched, cwsi=cwsi, retry_policy=RetryPolicy(max_retries=3)
        )
        wf = Workflow("frag")
        wf.add_task(TaskSpec("only", runtime_s=200))
        run = engine.run(wf)
        FaultInjector(env, cluster, schedule=[(50.0, "n-00000")], downtime=10.0)
        env.run(until=run.done)
        assert run.succeeded
        # CWSI recorded only the successful terminal attempt (engines
        # report completion through task_finished).
        traces = cwsi.provenance.for_task("only")
        assert traces and traces[-1].succeeded
        assert traces[-1].attempt >= 2


class TestDataStagingWithWorkflow:
    def test_inputs_staged_then_processed(self):
        """Catalog + transfer + engine: a workflow's external input is
        staged from an archive site before the run starts."""
        env = Environment()
        catalog = FileCatalog()
        archive = StorageSite(env, "archive", egress_mbps=100)
        scratch = StorageSite(env, "scratch", ingress_mbps=500)
        transfer = TransferService(env, catalog, {"archive": archive,
                                                  "scratch": scratch})
        raw = File("raw.dat", 2 * GB)
        catalog.register(raw, site="archive")

        cluster = Cluster(env, pools=[(NodeSpec("n", cores=4, memory_gb=32), 2)])
        sched = KubeScheduler(env, cluster)
        engine = NextflowLikeEngine(env, sched)
        wf = Workflow("staged")
        wf.add_task(TaskSpec("analyze", runtime_s=100, inputs=("raw.dat",)))

        done = {}

        def driver(env):
            yield env.process(transfer.stage_in([raw], "scratch"))
            done["staged_at"] = env.now
            run = engine.run(wf)
            yield run.done
            done["run"] = run

        env.process(driver(env))
        env.run()
        assert catalog.present_at("raw.dat", "scratch")
        # ~2GB at 100MB/s (archive egress is the bottleneck) -> >= 20s.
        assert done["staged_at"] >= 20.0
        assert done["run"].succeeded
        assert done["run"].records["analyze"].start_time >= done["staged_at"]


class TestBatchAndKubeCoexist:
    def test_two_resource_managers_same_cluster_is_safe(self):
        """A batch scheduler (whole nodes) and a kube scheduler (pods)
        on the SAME cluster never oversubscribe: allocation is enforced
        at the node level."""
        env = Environment()
        cluster = Cluster(env, pools=[(NodeSpec("n", cores=8, memory_gb=64), 4)])
        batch = BatchScheduler(env, cluster)
        kube = KubeScheduler(env, cluster)
        from repro.rm import Job, Pod, ResourceRequest

        jobs = [
            batch.submit(Job(request=ResourceRequest(nodes=2, walltime_s=500),
                             duration=100))
        ]
        pods = [kube.submit(Pod(cores=8, memory_gb=8, duration=50))
                for _ in range(6)]
        env.run()
        assert all(j.state.terminal for j in jobs)
        assert all(p.state.terminal for p in pods)
        assert all(not n.allocations for n in cluster.nodes)
