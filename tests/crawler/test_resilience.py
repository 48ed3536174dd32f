"""Unit tests for the fleet's resilience primitives."""

import pytest

from repro.crawler.fetch import Fetcher
from repro.crawler.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ResiliencePolicy,
    RetryBudget,
)
from repro.crawler.workers import MachinePool
from repro.platform.http import HttpFrontend, Response


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=1.0)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state(0.0) == BREAKER_CLOSED
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == BREAKER_OPEN
        assert not breaker.allow(0.5)
        assert breaker.opens == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state(0.0) == BREAKER_CLOSED

    def test_half_opens_after_cooldown_then_closes_on_probes(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=1.0, probe_successes=2
        )
        breaker.record_failure(0.0)
        assert breaker.state(0.9) == BREAKER_OPEN
        assert breaker.state(1.0) == BREAKER_HALF_OPEN
        assert breaker.allow(1.0)
        breaker.record_success(1.1)
        assert breaker.state(1.1) == BREAKER_HALF_OPEN
        breaker.record_success(1.2)
        assert breaker.state(1.2) == BREAKER_CLOSED

    def test_probe_failure_reopens_for_a_fresh_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0)
        breaker.record_failure(0.0)
        assert breaker.state(1.0) == BREAKER_HALF_OPEN
        breaker.record_failure(1.5)
        assert breaker.state(1.5) == BREAKER_OPEN
        assert breaker.cooldown_remaining(1.5) == pytest.approx(1.0)
        assert breaker.opens == 2

    def test_export_restore_round_trip(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3.0)
        breaker.record_failure(0.5)
        breaker.record_failure(0.6)
        clone = CircuitBreaker(failure_threshold=2, cooldown=3.0)
        clone.restore_state(breaker.export_state())
        assert clone.state(1.0) == BREAKER_OPEN
        assert clone.cooldown_remaining(1.0) == pytest.approx(2.6)
        assert clone.opens == 1

    def test_restore_rejects_unknown_state(self):
        breaker = CircuitBreaker()
        state = breaker.export_state()
        state["state"] = "ajar"
        with pytest.raises(ValueError, match="unknown breaker state"):
            breaker.restore_state(state)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_successes=0)


class TestRetryBudget:
    def test_unlimited_by_default(self):
        budget = RetryBudget()
        assert budget.remaining is None
        assert not budget.exhausted
        assert all(budget.spend() for _ in range(10_000))

    def test_spend_down_to_zero_then_refuse(self):
        budget = RetryBudget(3)
        assert budget.spend(2)
        assert budget.remaining == 1
        assert not budget.spend(2)  # refused whole, nothing partial
        assert budget.remaining == 1
        assert budget.spend()
        assert budget.exhausted

    def test_export_restore(self):
        budget = RetryBudget(10)
        budget.spend(4)
        clone = RetryBudget()
        clone.restore_state(budget.export_state())
        assert clone.budget == 10
        assert clone.remaining == 6

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryBudget(-1)


class TestResiliencePolicy:
    def test_factories_apply_the_knobs(self):
        policy = ResiliencePolicy(
            breaker_failure_threshold=2,
            breaker_cooldown=0.5,
            breaker_probe_successes=3,
            retry_budget=7,
        )
        breaker = policy.make_breaker()
        assert breaker.failure_threshold == 2
        assert breaker.cooldown == 0.5
        assert breaker.probe_successes == 3
        assert policy.make_budget().budget == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(initial_backoff=0.0)
        with pytest.raises(ValueError):
            ResiliencePolicy(initial_backoff=2.0, max_backoff=1.0)


def stub_frontend() -> HttpFrontend:
    return HttpFrontend(lambda path, viewer_id=None: Response(200, payload=None))


def make_fetcher(**kwargs) -> Fetcher:
    return Fetcher(
        frontend=stub_frontend(), ip=kwargs.pop("ip", "10.0.0.1"), **kwargs
    )


class TestJitterBackoff:
    def test_backoff_between_initial_and_cap(self):
        fetcher = make_fetcher(initial_backoff=0.1, max_backoff=2.0)
        backoff = 0.0
        for _ in range(50):
            backoff = fetcher._next_backoff(backoff)
            assert 0.1 <= backoff <= 2.0

    def test_backoff_is_capped(self):
        fetcher = make_fetcher(initial_backoff=1.0, max_backoff=1.5)
        backoff = 0.0
        for _ in range(20):
            backoff = fetcher._next_backoff(backoff)
        assert backoff <= 1.5

    def test_same_seed_same_waits(self):
        a = make_fetcher(backoff_seed=5)
        b = make_fetcher(backoff_seed=5)
        assert [a._next_backoff(0.0) for _ in range(10)] == [
            b._next_backoff(0.0) for _ in range(10)
        ]

    def test_machines_have_distinct_jitter_streams(self):
        a = make_fetcher(ip="10.0.0.1", backoff_seed=5)
        b = make_fetcher(ip="10.0.0.2", backoff_seed=5)
        assert [a._next_backoff(0.0) for _ in range(10)] != [
            b._next_backoff(0.0) for _ in range(10)
        ]


class TestPoolHealthRouting:
    def test_all_closed_is_plain_round_robin(self):
        pool = MachinePool(stub_frontend(), n_machines=3)
        ips = [pool._select().ip for _ in range(6)]
        assert ips == ["10.0.0.1", "10.0.0.2", "10.0.0.3"] * 2

    def test_open_breaker_is_skipped(self):
        pool = MachinePool(stub_frontend(), n_machines=3)
        now = pool.frontend.clock.now()
        banned = pool.fetchers[1]
        for _ in range(banned.breaker.failure_threshold):
            banned.breaker.record_failure(now)
        ips = [pool._select().ip for _ in range(4)]
        assert "10.0.0.2" not in ips

    def test_whole_fleet_quarantine_waits_out_the_soonest_cooldown(self):
        pool = MachinePool(
            stub_frontend(),
            n_machines=2,
            policy=ResiliencePolicy(breaker_cooldown=1.0),
        )
        clock = pool.frontend.clock
        pool.fetchers[0].breaker.record_failure(0.0)
        for _ in range(5):
            pool.fetchers[0].breaker.record_failure(0.0)
            pool.fetchers[1].breaker.record_failure(0.2)
        assert not any(f.breaker.allow(clock.now()) for f in pool.fetchers)
        fetcher = pool._select()
        # Machine 1 opened first, so its cooldown lapses first.
        assert fetcher.ip == "10.0.0.1"
        assert clock.now() == pytest.approx(1.0)
        assert pool.quarantine_waits == 1
        assert pool.time_quarantined == pytest.approx(1.0)

    def test_resilience_state_round_trips_through_pool_snapshot(self):
        pool = MachinePool(
            stub_frontend(), n_machines=2, policy=ResiliencePolicy(retry_budget=20)
        )
        pool.fetchers[0].breaker.record_failure(0.3)
        pool.budget.spend(5)
        pool.quarantine_waits = 2
        pool.time_quarantined = 0.7
        state = pool.export_state()

        clone = MachinePool(
            stub_frontend(), n_machines=2, policy=ResiliencePolicy(retry_budget=20)
        )
        clone.restore_state(state)
        assert clone.budget.remaining == 15
        assert clone.fetchers[0].breaker.export_state() == (
            pool.fetchers[0].breaker.export_state()
        )
        assert clone.quarantine_waits == 2
        assert clone.time_quarantined == pytest.approx(0.7)
