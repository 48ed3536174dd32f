"""Tests for the tel-user comparison (Table 3, Figure 2)."""

import numpy as np
import pytest

from repro.analysis.tel_users import (
    compare_tel_users,
    fields_shared_ccdfs,
    tel_user_ids,
)
from repro.crawler.dataset import CrawlDataset
from repro.crawler.parse import ParsedProfile
from repro.geo.index import build_geo_index
from repro.platform.models import ContactInfo, Gender, Place, Relationship


def hand_dataset() -> CrawlDataset:
    profiles = {
        1: ParsedProfile(
            user_id=1, name="tel",
            fields={
                "gender": Gender.MALE,
                "relationship": Relationship.SINGLE,
                "work_contact": ContactInfo(phone="+1"),
                "places_lived": [Place("Mumbai", 19.08, 72.88, "IN")],
                "education": "x", "phrase": "y",
            },
        ),
        2: ParsedProfile(
            user_id=2, name="plain",
            fields={
                "gender": Gender.FEMALE,
                "places_lived": [Place("New York", 40.71, -74.01, "US")],
            },
        ),
        3: ParsedProfile(user_id=3, name="minimal"),
    }
    return CrawlDataset(
        profiles=profiles,
        sources=np.empty(0, dtype=np.int64),
        targets=np.empty(0, dtype=np.int64),
    )


class TestHandData:
    @pytest.fixture(scope="class")
    def comparison(self):
        dataset = hand_dataset()
        return compare_tel_users(dataset, build_geo_index(dataset))

    def test_tel_user_detection(self):
        assert tel_user_ids(hand_dataset()) == [1]

    def test_counts(self, comparison):
        assert comparison.n_all == 3
        assert comparison.n_tel == 1
        assert comparison.tel_rate == pytest.approx(1 / 3)

    def test_gender_shares(self, comparison):
        assert comparison.gender_all.shares["Male"] == pytest.approx(0.5)
        assert comparison.gender_tel.shares["Male"] == pytest.approx(1.0)
        assert comparison.gender_all.total == 2  # user 3 shares no gender

    def test_relationship_shares(self, comparison):
        assert comparison.relationship_tel.shares["Single"] == pytest.approx(1.0)
        assert comparison.relationship_all.total == 1

    def test_location_shares(self, comparison):
        assert comparison.location_tel.shares["IN"] == pytest.approx(1.0)
        assert comparison.location_all.shares["US"] == pytest.approx(0.5)
        assert comparison.location_all.shares["Other"] == 0.0


class TestFigure2:
    def test_hand_curves(self):
        ccdfs = fields_shared_ccdfs(hand_dataset())
        # user1: name+gender+relationship+places+education+phrase = 6
        assert ccdfs.tel_counts.tolist() == [6]
        assert sorted(ccdfs.all_counts.tolist()) == [1, 3, 6]
        assert ccdfs.fraction_sharing_more_than(2, "all") == pytest.approx(2 / 3)

    def test_empty_tel_users_give_empty_curve(self):
        """A crawl that reaches no tel-user (small worlds do) still gets
        Figure 2: the tel curve is empty and its shares are NaN."""
        dataset = hand_dataset()
        del dataset.profiles[1]
        ccdfs = fields_shared_ccdfs(dataset)
        assert len(ccdfs.tel_users.x) == 0
        assert sorted(ccdfs.all_counts.tolist()) == [1, 3]
        assert np.isnan(ccdfs.fraction_sharing_more_than(6, "tel"))

    def test_no_profiles_rejected(self):
        dataset = hand_dataset()
        dataset.profiles.clear()
        with pytest.raises(ValueError, match="no profiles"):
            fields_shared_ccdfs(dataset)


class TestOnStudy:
    def test_tel_rate_near_paper(self, study_results):
        assert study_results.table3_tel_users.tel_rate == pytest.approx(
            0.0026, abs=0.0015
        )

    def test_tel_users_skew_male(self, study_results):
        t3 = study_results.table3_tel_users
        assert t3.gender_tel.shares["Male"] > t3.gender_all.shares["Male"]

    def test_tel_users_share_more_fields(self, study_results):
        f2 = study_results.fig2_fields
        # ~8 crawled tel-users at study scale: assert the gap direction
        # with slack; the bench at 12k asserts a 0.18 gap.
        assert f2.fraction_sharing_more_than(6, "tel") > (
            f2.fraction_sharing_more_than(6, "all") + 0.08
        )

    def test_population_gender_matches_table3(self, study_results):
        shares = study_results.table3_tel_users.gender_all.shares
        assert shares["Male"] == pytest.approx(0.6765, abs=0.03)
        assert shares["Female"] == pytest.approx(0.3146, abs=0.03)

    def test_population_single_share_matches_table3(self, study_results):
        shares = study_results.table3_tel_users.relationship_all.shares
        assert shares["Single"] == pytest.approx(0.4282, abs=0.06)
