"""Tests for the retrying fetcher."""

import dataclasses

import pytest

from repro.crawler.fetch import Fetcher, FetchError, FetchStats
from repro.crawler.resilience import RetryBudget
from repro.faults import FaultSchedule, Outage
from repro.obs.metrics import Registry
from repro.platform.http import HttpFrontend
from repro.platform.models import UserProfile
from repro.platform.service import GooglePlusService


@pytest.fixture
def service() -> GooglePlusService:
    svc = GooglePlusService(open_signup=True)
    svc.register(UserProfile(user_id=1, name="One"))
    return svc


def make_fetcher(service, **frontend_kwargs) -> Fetcher:
    frontend = HttpFrontend(service.handle_path, **frontend_kwargs)
    return Fetcher(frontend=frontend, ip="10.0.0.1")


class TestFetcher:
    def test_fetch_ok(self, service):
        fetcher = make_fetcher(service)
        page = fetcher.fetch_profile(1)
        assert page.user_id == 1
        assert fetcher.stats.pages_fetched == 1

    def test_fetch_missing_returns_none(self, service):
        fetcher = make_fetcher(service)
        assert fetcher.fetch_profile(999) is None
        assert fetcher.stats.not_found == 1

    def test_throttled_then_retried(self, service):
        fetcher = make_fetcher(service, rate_per_ip=5.0, burst=1.0)
        for user in (1, 1, 1):
            assert fetcher.fetch_profile(user) is not None
        assert fetcher.stats.throttled > 0
        assert fetcher.stats.time_waiting > 0

    def test_transient_errors_retried(self, service):
        fetcher = make_fetcher(service, error_rate=0.4, seed=1)
        pages = [fetcher.fetch_profile(1) for _ in range(20)]
        assert all(p is not None for p in pages)
        assert fetcher.stats.server_errors > 0

    def test_retries_exhausted(self, service):
        fetcher = make_fetcher(service, error_rate=0.97, seed=2)
        fetcher.max_retries = 2
        with pytest.raises(FetchError):
            for _ in range(50):
                fetcher.fetch_profile(1)

    def test_clock_advances_per_request(self, service):
        fetcher = make_fetcher(service)
        before = fetcher.frontend.clock.now()
        fetcher.fetch_profile(1)
        assert fetcher.frontend.clock.now() > before

    def test_throttle_and_flake_counted_separately(self, service):
        fetcher = make_fetcher(
            service, rate_per_ip=5.0, burst=1.0, error_rate=0.3, seed=5
        )
        for _ in range(10):
            assert fetcher.fetch_profile(1) is not None
        assert fetcher.stats.throttled > 0
        assert fetcher.stats.server_errors > 0

    def test_terminal_failure_pays_no_final_backoff(self, service):
        """Regression: the exhausted-retries path used to spend a backoff
        (clock advance, time_waiting, budget unit, jitter draw) after the
        last attempt, though no further attempt ever followed.

        A permanent outage makes every attempt 503; pinning
        ``initial_backoff == max_backoff`` collapses the decorrelated
        jitter to exactly ``min(cap, U(cap, 3*prev)) == cap``, so every
        paid wait is exactly 8.0 virtual seconds and the accounting is
        exact.
        """
        faults = FaultSchedule([Outage(start=0.0, end=1e9, retry_after=2.0)])
        frontend = HttpFrontend(service.handle_path, faults=faults)
        budget = RetryBudget(100)
        registry = Registry()
        fetcher = Fetcher(
            frontend=frontend,
            ip="10.0.0.1",
            max_retries=3,
            initial_backoff=8.0,
            max_backoff=8.0,
            budget=budget,
            registry=registry,
        )
        with pytest.raises(FetchError, match="retries exhausted"):
            fetcher.fetch_profile(1)
        # 4 attempts happened and all were observed as server errors...
        assert fetcher.stats.server_errors == fetcher.max_retries + 1
        # ...but only the 3 retries that actually ran were paid for.
        assert budget.spent == fetcher.max_retries
        assert fetcher.stats.time_waiting == pytest.approx(3 * 8.0)
        retries = registry.counter(
            "crawler.fetch_retries", labels=("machine", "reason")
        )
        assert retries.value(machine="10.0.0.1", reason="server_error") == 3
        expected = 4 * fetcher.request_latency + 3 * 8.0
        assert frontend.clock.now() == pytest.approx(expected)

    def test_terminal_failure_still_trips_breaker(self, service):
        """The terminal failure skips the backoff but not the breaker."""
        faults = FaultSchedule([Outage(start=0.0, end=1e9)])
        frontend = HttpFrontend(service.handle_path, faults=faults)
        fetcher = Fetcher(frontend=frontend, ip="10.0.0.1", max_retries=4)
        with pytest.raises(FetchError):
            fetcher.fetch_profile(1)
        # failure_threshold=5 == attempts, so the fifth (terminal)
        # failure must have been recorded for the breaker to open.
        assert not fetcher.breaker.allow(frontend.clock.now())

    def test_parallelism_scales_time(self, service):
        solo = make_fetcher(service)
        solo.fetch_profile(1)
        fleet_frontend = HttpFrontend(service.handle_path)
        fleet = Fetcher(
            frontend=fleet_frontend, ip="10.0.0.2", parallelism=10
        )
        fleet.fetch_profile(1)
        assert fleet_frontend.clock.now() < solo.frontend.clock.now()


class TestFetchStats:
    def test_merge_adds_every_field(self):
        a = FetchStats(pages_fetched=2, not_found=1, time_waiting=0.5)
        b = FetchStats(pages_fetched=3, server_errors=4, time_waiting=1.5)
        assert a.merge(b) is a
        assert a == FetchStats(
            pages_fetched=5, not_found=1, server_errors=4, time_waiting=2.0
        )

    def test_merge_covers_fields_added_later(self):
        """merge iterates dataclasses.fields, so every field aggregates."""
        a, b = FetchStats(), FetchStats()
        for f in dataclasses.fields(FetchStats):
            setattr(b, f.name, 1)
        a.merge(b)
        for f in dataclasses.fields(FetchStats):
            assert getattr(a, f.name) == 1, f.name
