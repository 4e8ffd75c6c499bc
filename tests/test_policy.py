"""Unit tests for task-level failure policies."""

from __future__ import annotations

import math

import pytest

from repro.core.policy import (
    DEFAULT_POLICY,
    FailurePolicy,
    ReplicationMode,
    ResourceSelection,
)
from repro.errors import PolicyError


class TestConstruction:
    def test_default_is_single_attempt(self):
        assert DEFAULT_POLICY.max_tries == 1
        assert not DEFAULT_POLICY.retries_enabled
        assert not DEFAULT_POLICY.replicated
        assert DEFAULT_POLICY.restart_from_checkpoint

    def test_retrying_constructor_matches_figure2(self):
        policy = FailurePolicy.retrying(3, interval=10.0)
        assert policy.max_tries == 3
        assert policy.interval == 10.0
        assert policy.retries_enabled
        assert policy.resource_selection is ResourceSelection.SAME

    def test_replica_constructor_matches_figure3(self):
        policy = FailurePolicy.replica()
        assert policy.replicated
        assert policy.replication is ReplicationMode.REPLICA

    def test_replica_with_retries_section6_combination(self):
        policy = FailurePolicy.replica(max_tries=3)
        assert policy.replicated and policy.retries_enabled

    def test_unlimited_retries(self):
        policy = FailurePolicy.retrying(None)
        assert policy.max_tries is None
        assert policy.retries_enabled
        assert policy.tries_remaining(10**9) == math.inf

    def test_zero_tries_rejected(self):
        with pytest.raises(PolicyError):
            FailurePolicy(max_tries=0)

    def test_negative_interval_rejected(self):
        with pytest.raises(PolicyError):
            FailurePolicy(interval=-1.0)

    def test_invalid_enums_rejected(self):
        with pytest.raises(PolicyError):
            FailurePolicy(replication="replica")  # must be the enum
        with pytest.raises(PolicyError):
            FailurePolicy(resource_selection="same")

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_POLICY.max_tries = 5  # type: ignore[misc]


class TestTriesAccounting:
    def test_tries_remaining_counts_down(self):
        policy = FailurePolicy.retrying(3)
        assert policy.tries_remaining(0) == 3
        assert policy.tries_remaining(1) == 2
        assert policy.tries_remaining(3) == 0

    def test_tries_remaining_never_negative(self):
        assert FailurePolicy.retrying(2).tries_remaining(5) == 0


class TestDescribe:
    def test_default_description(self):
        text = FailurePolicy(restart_from_checkpoint=False).describe()
        assert text == "no task-level recovery"

    def test_retry_description_mentions_limits(self):
        text = FailurePolicy.retrying(3, interval=10).describe()
        assert "3" in text and "10" in text and "same" in text

    def test_unlimited_description(self):
        assert "unlimited" in FailurePolicy.retrying(None).describe()

    def test_replica_description(self):
        assert "replicate" in FailurePolicy.replica().describe()

    def test_mask_exception_description(self):
        assert "exception" in FailurePolicy(retry_on_exception=True).describe()


def _unsaturated_delay(policy: FailurePolicy, retry_number: int) -> float:
    """The wait as it was computed before capped waits saturated: the power
    first, then the cap (raises ``OverflowError`` once the power does)."""
    delay = policy.interval * policy.backoff_factor ** (retry_number - 1)
    if policy.max_interval is not None:
        delay = min(delay, policy.max_interval)
    return delay


class TestRetryDelay:
    POLICIES = [
        FailurePolicy.backoff_retrying(None, 1.0, 2.0, 8.0),
        FailurePolicy.backoff_retrying(None, 0.5, 3.0, 1e6),
        FailurePolicy.backoff_retrying(None, 3.0, 1.0001, 5.0),
        FailurePolicy.backoff_retrying(None, 1e-3, 2.0, 1e300),
        FailurePolicy.backoff_retrying(None, 2.0, 1.5, 2.0),
        FailurePolicy.backoff_retrying(None, 0.0, 2.0, 4.0),
        FailurePolicy.backoff_retrying(None, 1.0, 2.0),
        FailurePolicy.retrying(None, 10.0),
    ]

    @staticmethod
    def _id(policy: FailurePolicy) -> str:
        return f"{policy.interval:g}x{policy.backoff_factor:g}-cap{policy.max_interval}"

    @pytest.mark.parametrize("policy", POLICIES, ids=_id.__func__)
    def test_delays_are_bit_identical_up_to_retry_1025(self, policy):
        for n in range(1, 1026):
            try:
                expected = _unsaturated_delay(policy, n)
            except OverflowError:
                continue  # there was no answer to keep
            assert policy.retry_delay(n) == expected, n

    @pytest.mark.parametrize(
        "policy",
        [p for p in POLICIES if p.max_interval is not None],
        ids=_id.__func__,
    )
    def test_a_capped_delay_is_the_cap_for_any_retry(self, policy):
        grows = policy.interval > 0 and policy.backoff_factor > 1
        policy.retry_delay(1026)
        for n in (10**5, 10**9, 10**18):
            expected = policy.max_interval if grows else 0.0
            assert policy.retry_delay(n) == expected, n

    def test_the_mttf_5_backoff_cell_samples(self):
        """At MTTF 5 some of 2 000 runs retry more than 1 025 times: the
        wait there used to raise ``OverflowError`` (``2.0 ** 1025``)."""
        from repro.sim import SimulationParams, sample_technique

        params = SimulationParams(mttf=5.0, runs=2000)
        samples = sample_technique("backoff_retry", params)
        assert samples.shape == (2000,)
        assert all(math.isfinite(x) and x > 0 for x in samples)
