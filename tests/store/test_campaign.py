"""End-to-end campaign guarantees: kill anywhere, resume bit-identically.

The headline contract of :mod:`repro.store`: a crawl killed at *any*
point — mid-interval, exactly at a checkpoint boundary, before the first
checkpoint, or repeatedly — resumes to a dataset bit-identical to an
uninterrupted run: same edge arrays, same profiles, same CrawlStats.
"""

from __future__ import annotations

import json

import pytest

from repro.crawler import BidirectionalBFSCrawler, CrawlDataset
from repro.crawler.frontier import BFSFrontier
from repro.obs.metrics import Registry
from repro.store import (
    CampaignConfig,
    CampaignError,
    CrawlCampaign,
    SimulatedCrash,
    dataset_diff,
)
from repro.store.campaign import ARCHIVE_DIR, CHECKPOINTS_DIR, MANIFEST_NAME
from repro.store.checkpoint import load_latest
from repro.synth import build_world, WorldConfig

#: Small but non-trivial: ~500 pages, a dozen checkpoints, several shards.
CONFIG = CampaignConfig(
    n_users=500,
    seed=17,
    n_machines=4,
    checkpoint_every_pages=40,
    shard_edges=512,
)

#: Same size but with failures and heavy throttling in play, so resuming
#: also has to restore the flakiness RNG and rate-limiter buckets exactly.
FLAKY_CONFIG = CampaignConfig(
    n_users=500,
    seed=23,
    n_machines=4,
    error_rate=0.08,
    rate_per_ip=2.0,
    burst=4.0,
    checkpoint_every_pages=40,
    shard_edges=512,
)


def reference_crawl(config: CampaignConfig) -> CrawlDataset:
    """The uninterrupted in-memory crawl a campaign must reproduce."""
    world = build_world(
        WorldConfig(
            n_users=config.n_users,
            seed=config.seed,
            circle_display_limit=config.circle_display_limit,
        )
    )
    frontend = world.frontend(
        rate_per_ip=config.rate_per_ip, burst=config.burst, error_rate=config.error_rate
    )
    crawler = BidirectionalBFSCrawler(frontend, config.crawl_config())
    return crawler.crawl([world.seed_user_id()])


@pytest.fixture(scope="module")
def reference() -> CrawlDataset:
    return reference_crawl(CONFIG)


@pytest.fixture(scope="module")
def flaky_reference() -> CrawlDataset:
    return reference_crawl(FLAKY_CONFIG)


class TestUninterrupted:
    def test_campaign_matches_plain_crawl(self, tmp_path, reference):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        dataset = campaign.run(registry=Registry())
        assert dataset_diff(dataset, reference) == []
        assert campaign.status == "complete"

    def test_archive_loads_unchanged(self, tmp_path, reference):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        campaign.run(registry=Registry())
        loaded = CrawlDataset.load(tmp_path / "camp" / ARCHIVE_DIR)
        assert dataset_diff(loaded, reference) == []

    def test_inspect_accounts_for_everything(self, tmp_path, reference):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        campaign.run(registry=Registry())
        report = campaign.inspect()
        assert report["status"] == "complete"
        assert report["journal"]["records"]["page"] == len(reference.profiles)
        assert report["segments"]["edges"] == len(reference.sources)
        assert report["archive"] is True
        assert report["checkpoints"]  # retention keeps the newest few


class TestCrashAndResume:
    def resume_after_crash(self, directory, config, reference, **crash) -> None:
        campaign = CrawlCampaign(directory, config)
        with pytest.raises(SimulatedCrash):
            campaign.run(registry=Registry(), **crash)
        assert campaign.status == "running"
        resumed = CrawlCampaign(directory)
        dataset = resumed.run(registry=Registry())
        assert dataset_diff(dataset, reference) == []
        assert resumed.status == "complete"
        loaded = CrawlDataset.load(directory / ARCHIVE_DIR)
        assert dataset_diff(loaded, reference) == []

    def test_crash_mid_interval(self, tmp_path, reference):
        # Dies 10 pages into the third checkpoint interval.
        self.resume_after_crash(
            tmp_path / "camp", CONFIG, reference, crash_after_pages=90
        )

    def test_crash_at_checkpoint_boundary(self, tmp_path, reference):
        # Dies immediately after the second checkpoint is durable.
        self.resume_after_crash(
            tmp_path / "camp", CONFIG, reference, crash_after_checkpoints=2
        )

    def test_crash_before_first_checkpoint(self, tmp_path, reference):
        # Nothing durable yet: resume restarts from scratch, same result.
        self.resume_after_crash(
            tmp_path / "camp", CONFIG, reference, crash_after_pages=10
        )

    def test_crash_twice_then_finish(self, tmp_path, reference):
        directory = tmp_path / "camp"
        campaign = CrawlCampaign(directory, CONFIG)
        with pytest.raises(SimulatedCrash):
            campaign.run(registry=Registry(), crash_after_pages=60)
        with pytest.raises(SimulatedCrash):
            CrawlCampaign(directory).run(registry=Registry(), crash_after_pages=50)
        dataset = CrawlCampaign(directory).run(registry=Registry())
        assert dataset_diff(dataset, reference) == []

    def test_crash_and_resume_with_failures_and_throttling(
        self, tmp_path, flaky_reference
    ):
        # The hard case: resuming must put the failure RNG, the token
        # buckets, and the virtual clock back exactly, or retries and
        # backoffs diverge and so does every downstream page.
        self.resume_after_crash(
            tmp_path / "camp", FLAKY_CONFIG, flaky_reference, crash_after_pages=110
        )

    def test_resume_from_checkpoint_with_legacy_visited_list(
        self, tmp_path, reference, monkeypatch
    ):
        """Older checkpoints also stored the popped users as a "visited"
        list in the frontier state; resuming from one ignores it."""
        directory = tmp_path / "camp"
        export_state = BFSFrontier.export_state

        def legacy_export_state(frontier):
            state = export_state(frontier)
            state["visited"] = sorted(set(state["seen"]) - set(state["queue"]))
            return state

        def latest_frontier() -> dict:
            record = load_latest(directory / CHECKPOINTS_DIR, registry=Registry())
            return record.snapshot["frontier"]

        with monkeypatch.context() as patch:
            patch.setattr(BFSFrontier, "export_state", legacy_export_state)
            with pytest.raises(SimulatedCrash):
                CrawlCampaign(directory, CONFIG).run(
                    registry=Registry(), crash_after_pages=90
                )
        assert len(latest_frontier()["visited"]) == 90
        resumed = CrawlCampaign(directory)
        dataset = resumed.run(registry=Registry())
        assert dataset_diff(dataset, reference) == []
        assert resumed.status == "complete"
        assert "visited" not in latest_frontier()

    def test_recovery_metrics(self, tmp_path, reference):
        directory = tmp_path / "camp"
        campaign = CrawlCampaign(directory, CONFIG)
        with pytest.raises(SimulatedCrash):
            campaign.run(registry=Registry(), crash_after_pages=90)
        registry = Registry()
        CrawlCampaign(directory).run(registry=registry)
        assert registry.counter("store.recoveries", "").value() == 1
        # The best-effort abort checkpoint lands at the crash point
        # (page 90), not the last periodic checkpoint (page 80).
        assert registry.counter("store.replayed_pages", "").value() == 90
        assert registry.counter("store.checkpoints", "").value() > 0


class TestCampaignDirectory:
    def test_conflicting_config_rejected(self, tmp_path):
        CrawlCampaign(tmp_path / "camp", CONFIG)
        with pytest.raises(CampaignError, match="different config"):
            CrawlCampaign(tmp_path / "camp", FLAKY_CONFIG)

    def test_reopen_without_config_loads_stored(self, tmp_path):
        CrawlCampaign(tmp_path / "camp", CONFIG)
        reopened = CrawlCampaign(tmp_path / "camp")
        assert reopened.config == CONFIG

    def test_compact_requires_a_checkpoint(self, tmp_path):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        with pytest.raises(CampaignError, match="no checkpoint"):
            campaign.compact()

    def test_config_round_trips_through_json(self):
        data = CONFIG.to_json_dict()
        assert CampaignConfig.from_json_dict(data) == CONFIG

    def test_dict_store_rejected_with_cause(self):
        with pytest.raises(ValueError, match="dict store was removed"):
            CampaignConfig(store="dict")

    def test_legacy_dict_store_manifest_resumes(self, tmp_path, reference):
        """A campaign whose manifest names the removed dict store loads
        as columnar and resumes to the uninterrupted crawl."""
        directory = tmp_path / "camp"
        with pytest.raises(SimulatedCrash):
            CrawlCampaign(directory, CONFIG).run(
                registry=Registry(), crash_after_pages=90
            )
        manifest = directory / MANIFEST_NAME
        document = json.loads(manifest.read_text(encoding="utf-8"))
        document["config"]["store"] = "dict"
        manifest.write_text(json.dumps(document), encoding="utf-8")
        resumed = CrawlCampaign(directory)
        assert resumed.config == CONFIG
        dataset = resumed.run(registry=Registry())
        assert dataset_diff(dataset, reference) == []
        assert resumed.status == "complete"


class TestDatasetDiff:
    def test_identical_datasets_diff_empty(self, reference):
        assert dataset_diff(reference, reference) == []

    def test_differences_are_reported(self, reference, flaky_reference):
        problems = dataset_diff(reference, flaky_reference)
        assert problems  # different worlds cannot match
        assert any("differ" in p for p in problems)
