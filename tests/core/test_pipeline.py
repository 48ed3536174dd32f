"""Tests for the end-to-end measurement pipeline."""

import numpy as np
import pytest

from repro.core import MeasurementStudy, StudyConfig
from repro.core import pipeline
from repro.core.pipeline import CrawlCoverageError, check_crawl_coverage
from repro.crawler.dataset import CrawlDataset
from repro.experiments.runner import main as experiments_main
from repro.synth import WorldConfig


class TestStudyConfig:
    def test_default_world_from_top_level_params(self):
        config = StudyConfig(n_users=3_000, seed=42)
        world = config.world_config()
        assert world.n_users == 3_000
        assert world.seed == 42

    def test_explicit_world_wins(self):
        world = WorldConfig(n_users=1_000, seed=5)
        config = StudyConfig(n_users=9_999, world=world)
        assert config.world_config() is world

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_crawl_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="crawl_fraction"):
            StudyConfig(n_users=2_000, crawl_fraction=fraction)

    def test_full_crawl_fraction_accepted(self):
        assert StudyConfig(crawl_fraction=1.0).crawl_fraction == 1.0

    @pytest.mark.parametrize(
        "field",
        [
            "n_machines",
            "path_workers",
            "path_sample_start",
            "path_sample_max",
            "path_mile_pairs",
        ],
    )
    def test_count_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            StudyConfig(n_users=2_000, **{field: 0})

    def test_cli_rejects_bad_config_before_building_the_world(self, monkeypatch):
        def no_build(config):
            raise AssertionError("world built for an invalid config")

        monkeypatch.setattr(pipeline, "build_world", no_build)
        with pytest.raises(ValueError, match="path_workers"):
            experiments_main(["--users", "2000", "--path-workers", "0"])


class TestCrawlCoverage:
    def test_zero_page_budget_fails(self):
        empty = CrawlDataset(
            profiles={}, sources=np.empty(0, np.int64), targets=np.empty(0, np.int64)
        )
        with pytest.raises(CrawlCoverageError, match="fetched 0 of 0 pages"):
            check_crawl_coverage(empty, seed_user=0, budget=0)


class TestRun:
    def test_all_artifacts_present(self, study_results):
        assert len(study_results.table1_top_users) == 20
        assert len(study_results.table2_attributes) == 17
        assert study_results.table3_tel_users.n_all > 0
        assert study_results.table4_row.n_nodes > 0
        assert len(study_results.table5_occupations) == 10
        assert len(study_results.fig6_countries) == 10
        assert len(study_results.fig7_penetration.points) > 10
        assert len(study_results.fig8_openness.by_country) == 10
        assert study_results.lost_edges.total_edges > 0

    def test_crawl_fraction_respected(self, study_results):
        config = study_results.config
        expected = int(config.n_users * config.crawl_fraction)
        assert study_results.dataset.n_profiles == expected

    def test_graph_larger_than_crawl(self, study_results):
        """Uncrawled endpoints appear in the graph, as in the paper
        (27.5M crawled of 35.1M nodes)."""
        assert study_results.graph.n > study_results.dataset.n_profiles

    def test_run_accepts_prebuilt_dataset(self):
        study = MeasurementStudy(
            StudyConfig(
                n_users=1_200,
                seed=3,
                crawl_fraction=1.0,
                path_sample_start=50,
                path_sample_max=50,
                path_mile_pairs=2_000,
            )
        )
        dataset = study.crawl()
        results = study.run(dataset=dataset)
        assert results.dataset is dataset

    def test_deterministic_crawl(self):
        def run_crawl():
            study = MeasurementStudy(StudyConfig(n_users=1_200, seed=9))
            return study.crawl()

        a, b = run_crawl(), run_crawl()
        assert np.array_equal(a.sources, b.sources)
        assert list(a.profiles) == list(b.profiles)
