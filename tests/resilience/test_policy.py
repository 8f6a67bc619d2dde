"""RetryPolicy: classification, budgets, backoff, jitter determinism."""

import pytest

from repro.cluster import Cluster, NodeSpec
from repro.cluster.node import NodeFailureCause
from repro.data.transfer import TransferError
from repro.engines import AirflowLikeEngine, ArgoLikeEngine, NextflowLikeEngine
from repro.entk import AgentConfig
from repro.llm import Debugger
from repro.resilience import (
    ALL_CLASSES,
    RECOVERABLE,
    TRANSIENT_ONLY,
    FailureClass,
    RetryPolicy,
    classify_failure,
)
from repro.rm import KubeScheduler
from repro.simkernel import Environment


class TestClassifyFailure:
    def test_node_failure_cause_is_transient(self):
        assert classify_failure(NodeFailureCause("n-0")) is FailureClass.TRANSIENT

    def test_dead_node_string_is_transient(self):
        assert classify_failure("dead-node:n-00042") is FailureClass.TRANSIENT

    def test_walltime_literal(self):
        assert classify_failure("walltime") is FailureClass.WALLTIME

    def test_plain_exception_is_permanent(self):
        assert classify_failure(ValueError("time step too large")) is (
            FailureClass.PERMANENT
        )

    def test_transient_attribute_wins(self):
        err = TransferError("f.dat", "a", "b")
        assert classify_failure(err) is FailureClass.TRANSIENT

    def test_spot_and_outage_markers(self):
        assert classify_failure("spot-reclaim") is FailureClass.TRANSIENT
        assert classify_failure("site-outage:tahoma") is FailureClass.TRANSIENT
        assert classify_failure("pilot-shutdown") is FailureClass.TRANSIENT

    def test_failure_class_passthrough(self):
        assert classify_failure(FailureClass.WALLTIME) is FailureClass.WALLTIME


class TestValidation:
    """RetryPolicy is the one place a retry budget is validated."""

    def test_negative_max_retries_rejected_with_shared_message(self):
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            RetryPolicy(max_retries=-1)

    def test_other_fields_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_on=frozenset())


def _engine_policy(engine_cls):
    env = Environment()
    cluster = Cluster(env, pools=[(NodeSpec("a", cores=4), 2)])
    return engine_cls(env, KubeScheduler(env, cluster)).retry_policy


@pytest.mark.parametrize(
    "default, expected",
    [
        (lambda: AgentConfig().retry_policy, RetryPolicy(max_retries=3)),
        (lambda: _engine_policy(NextflowLikeEngine), RetryPolicy(max_retries=2)),
        (lambda: _engine_policy(ArgoLikeEngine), RetryPolicy(max_retries=2)),
        (lambda: _engine_policy(AirflowLikeEngine), RetryPolicy(max_retries=2)),
        (
            lambda: Debugger().retry_policy,
            RetryPolicy(max_retries=2, retry_on=TRANSIENT_ONLY),
        ),
    ],
    ids=["agent", "nextflow", "argo", "airflow", "debugger"],
)
def test_runtime_default_retry_policy(default, expected):
    """The frozen benchmark suite builds these runtimes with no retry
    argument, so their defaults are part of what it measures."""
    assert default() == expected


class TestShouldRetry:
    def test_budget(self):
        p = RetryPolicy(max_retries=2)
        assert p.should_retry(1)
        assert p.should_retry(2)
        assert not p.should_retry(3)
        assert p.max_attempts == 3

    def test_default_retries_every_class(self):
        p = RetryPolicy(max_retries=2)
        assert p.retry_on == ALL_CLASSES
        assert p.should_retry(1, ValueError("payload bug"))
        assert p.should_retry(1, "walltime")

    def test_transient_only_aborts_on_payload_error(self):
        p = RetryPolicy(max_retries=5, retry_on=TRANSIENT_ONLY)
        assert p.should_retry(1, NodeFailureCause("n-1"))
        assert not p.should_retry(1, ValueError("diverged"))

    def test_recoverable_includes_walltime(self):
        p = RetryPolicy.resilient(retry_walltime=True)
        assert p.retry_on == RECOVERABLE
        assert p.should_retry(1, "walltime")
        assert not p.should_retry(1, RuntimeError("bad input"))


class TestBackoff:
    def test_zero_base_means_zero_delay(self):
        p = RetryPolicy(max_retries=3)
        assert p.backoff_s(1) == 0.0
        assert p.backoff_s(3) == 0.0

    def test_exponential_growth_and_cap(self):
        p = RetryPolicy(
            max_retries=10, backoff_base_s=2.0, backoff_factor=2.0,
            backoff_max_s=10.0,
        )
        assert p.backoff_s(1) == 2.0
        assert p.backoff_s(2) == 4.0
        assert p.backoff_s(3) == 8.0
        assert p.backoff_s(4) == 10.0  # capped
        assert p.backoff_s(9) == 10.0

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(
            max_retries=3, backoff_base_s=10.0, jitter=0.25, seed=7
        )
        a = p.backoff_s(2, key="task-a")
        assert a == p.backoff_s(2, key="task-a")  # same inputs, same draw
        assert 10.0 * 2 * 0.75 <= a <= 10.0 * 2 * 1.25
        # Different key or attempt decorrelates.
        assert a != p.backoff_s(2, key="task-b")
        assert a != p.backoff_s(3, key="task-a")

    def test_jitter_independent_of_policy_identity(self):
        # Same (seed, attempt, key) → same delay even from a rebuilt
        # policy: no dependence on object identity or process salt.
        p1 = RetryPolicy(max_retries=3, backoff_base_s=5.0, jitter=0.5, seed=3)
        p2 = RetryPolicy(max_retries=3, backoff_base_s=5.0, jitter=0.5, seed=3)
        assert p1.backoff_s(1, key="x") == p2.backoff_s(1, key="x")

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)
