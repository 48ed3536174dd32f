"""Tel-user analysis: privacy risk takers (Section 3.2, Table 3, Figure 2).

Tel-users are crawled profiles whose public work or home contact block
carries a phone number. The paper compares them with the population on
gender, relationship status and country, and shows (Figure 2) that they
share far more profile fields — the risk-taking signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crawler.dataset import CrawlDataset
from repro.crawler.parse import ParsedProfile
from repro.geo.index import GeoIndex
from repro.graph.degree import ccdf, EmpiricalCCDF
from repro.platform.models import Gender, Relationship


@dataclass(frozen=True)
class GroupShares:
    """Percentage breakdown of one attribute for one user group."""

    total: int
    shares: dict[str, float] = field(default_factory=dict)

    def percent(self, key: str) -> float:
        return 100.0 * self.shares.get(key, 0.0)


@dataclass(frozen=True)
class TelUserComparison:
    """The full Table 3: all-users vs tel-users across three attributes."""

    n_all: int
    n_tel: int
    gender_all: GroupShares
    gender_tel: GroupShares
    relationship_all: GroupShares
    relationship_tel: GroupShares
    location_all: GroupShares
    location_tel: GroupShares

    @property
    def tel_rate(self) -> float:
        return self.n_tel / self.n_all if self.n_all else 0.0


def tel_user_ids(dataset: CrawlDataset) -> list[int]:
    """Ids of crawled users publicly sharing a phone number."""
    return [p.user_id for p in dataset.profiles.values() if p.shares_phone()]


def _gender_shares(profiles: list[ParsedProfile]) -> GroupShares:
    counts: dict[str, int] = {g.value: 0 for g in Gender}
    n = 0
    for profile in profiles:
        gender = profile.gender()
        if gender is None:
            continue
        counts[gender.value] += 1
        n += 1
    return GroupShares(total=n, shares={k: v / n if n else 0.0 for k, v in counts.items()})


def _relationship_shares(profiles: list[ParsedProfile]) -> GroupShares:
    counts: dict[str, int] = {r.value: 0 for r in Relationship}
    n = 0
    for profile in profiles:
        status = profile.relationship()
        if status is None:
            continue
        counts[status.value] += 1
        n += 1
    return GroupShares(total=n, shares={k: v / n if n else 0.0 for k, v in counts.items()})


def _location_shares(
    profiles: list[ParsedProfile], geo: GeoIndex, top_codes: tuple[str, ...]
) -> GroupShares:
    """Country shares over the named codes, remainder bucketed as Other."""
    counts: dict[str, int] = {code: 0 for code in top_codes}
    counts["Other"] = 0
    n = 0
    for profile in profiles:
        position = geo.position_of.get(profile.user_id)
        if position is None:
            continue
        code = geo.countries[position]
        counts[code if code in counts else "Other"] += 1
        n += 1
    return GroupShares(total=n, shares={k: v / n if n else 0.0 for k, v in counts.items()})


#: Table 3 lists the top five countries explicitly.
TABLE3_COUNTRIES: tuple[str, ...] = ("US", "IN", "BR", "GB", "CA")


def compare_tel_users(
    dataset: CrawlDataset,
    geo: GeoIndex,
    location_codes: tuple[str, ...] = TABLE3_COUNTRIES,
) -> TelUserComparison:
    """Compute the full Table 3 comparison."""
    everyone = list(dataset.profiles.values())
    tel = [p for p in everyone if p.shares_phone()]
    return TelUserComparison(
        n_all=len(everyone),
        n_tel=len(tel),
        gender_all=_gender_shares(everyone),
        gender_tel=_gender_shares(tel),
        relationship_all=_relationship_shares(everyone),
        relationship_tel=_relationship_shares(tel),
        location_all=_location_shares(everyone, geo, location_codes),
        location_tel=_location_shares(tel, geo, location_codes),
    )


@dataclass(frozen=True)
class FieldsSharedCCDFs:
    """Figure 2: CCDF of public field counts, tel-users vs everyone.

    Field counts exclude the contact blocks, per the paper's
    "contabilization" note.
    """

    all_users: EmpiricalCCDF
    tel_users: EmpiricalCCDF
    all_counts: np.ndarray
    tel_counts: np.ndarray

    def fraction_sharing_more_than(self, k: int, group: str = "all") -> float:
        counts = self.all_counts if group == "all" else self.tel_counts
        if len(counts) == 0:
            return float("nan")
        return float((counts > k).mean())


def fields_shared_ccdfs(dataset: CrawlDataset) -> FieldsSharedCCDFs:
    """Compute Figure 2's two curves from a crawl dataset."""
    all_counts = np.array(
        [p.count_fields() for p in dataset.profiles.values()], dtype=np.int64
    )
    tel_counts = np.array(
        [
            p.count_fields()
            for p in dataset.profiles.values()
            if p.shares_phone()
        ],
        dtype=np.int64,
    )
    if len(all_counts) == 0:
        raise ValueError("dataset has no profiles to compare")
    # A small crawl may reach no tel-user at all (~0.26% of users): the
    # tel curve is then empty and its shares read n/a.
    no_tel = EmpiricalCCDF(np.empty(0), np.empty(0))
    return FieldsSharedCCDFs(
        all_users=ccdf(all_counts),
        tel_users=ccdf(tel_counts) if len(tel_counts) else no_tel,
        all_counts=all_counts,
        tel_counts=tel_counts,
    )
