"""Growth-phase analysis (future work of Section 7 + densification of §5).

Given a :class:`~repro.synth.growth.GrowthTimeline`, measures:

* the **adoption curve** and its phase transitions — the open-signup
  tipping point (largest jump in daily signups) and the stabilization
  point (daily growth falling below a fraction of its peak);
* the **densification power law** ``E(t) ∝ N(t)^a`` of Leskovec et al.,
  which the paper invokes to argue Google+'s long 5.9-hop paths were a
  symptom of youth;
* the **shrinking-diameter effect**: sampled mean path length per
  snapshot, which should fall (or stabilise) as the network densifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.paths import sampled_path_lengths
from repro.graph.reciprocity import global_reciprocity
from repro.synth.growth import CRAWL_DAY, GrowthTimeline, OPEN_SIGNUP_DAY


@dataclass(frozen=True)
class SnapshotMetrics:
    """Structural metrics of one temporal snapshot."""

    day: float
    n_nodes: int
    n_edges: int
    mean_degree: float
    mean_path_length: float
    reciprocity: float


@dataclass(frozen=True)
class GrowthAnalysis:
    """Full growth study over a timeline."""

    days: np.ndarray
    adoption: np.ndarray
    snapshots: list[SnapshotMetrics]
    densification_exponent: float
    tipping_day: float
    stabilization_day: float

    def densifies(self) -> bool:
        """True when edges grow superlinearly in nodes (a > 1)."""
        return self.densification_exponent > 1.0


def _snapshot_metrics(
    timeline: GrowthTimeline,
    day: float,
    rng: np.random.Generator,
    path_samples: int,
) -> SnapshotMetrics:
    node_ids, sources, targets = timeline.snapshot(day)
    n_nodes = len(node_ids)
    n_edges = len(sources)
    if n_edges == 0 or n_nodes < 2:
        return SnapshotMetrics(day, n_nodes, n_edges, 0.0, float("nan"), 0.0)
    graph = CSRGraph.from_edge_arrays(sources, targets, node_ids=node_ids)
    paths = sampled_path_lengths(
        graph,
        rng,
        initial_k=min(path_samples, graph.n),
        max_k=min(path_samples, graph.n),
    )
    return SnapshotMetrics(
        day=day,
        n_nodes=n_nodes,
        n_edges=n_edges,
        mean_degree=n_edges / n_nodes,
        mean_path_length=paths.mean,
        reciprocity=global_reciprocity(graph),
    )


def find_tipping_point(days: np.ndarray, adoption: np.ndarray) -> float:
    """Day the growth spark ignites: first day at >= 50% of peak signups.

    Robust to bin noise, unlike a second-derivative argmax: the answer is
    the leading edge of the signup spike (the open-signup date, for the
    Google+ arc).
    """
    daily = np.diff(adoption).astype(float)
    if len(daily) == 0 or daily.max() <= 0:
        return float(days[0]) if len(days) else 0.0
    threshold = 0.5 * daily.max()
    first = int(np.argmax(daily >= threshold))
    return float(days[first + 1])


def find_stabilization(
    days: np.ndarray, adoption: np.ndarray, threshold: float = 0.2
) -> float:
    """First day after the peak where daily growth < threshold * peak."""
    daily = np.diff(adoption).astype(float)
    if len(daily) == 0:
        return float(days[-1]) if len(days) else 0.0
    peak_index = int(np.argmax(daily))
    peak = daily[peak_index]
    if peak <= 0:
        return float(days[-1])
    for index in range(peak_index + 1, len(daily)):
        if daily[index] < threshold * peak:
            return float(days[index + 1])
    return float(days[-1])


def fit_densification(snapshots: list[SnapshotMetrics]) -> float:
    """Slope of log E vs log N across snapshots (Leskovec's ``a``)."""
    points = [
        (s.n_nodes, s.n_edges)
        for s in snapshots
        if s.n_nodes > 1 and s.n_edges > 0
    ]
    if len(points) < 2:
        return float("nan")
    log_n = np.log10([p[0] for p in points])
    log_e = np.log10([p[1] for p in points])
    slope, _ = np.polyfit(log_n, log_e, 1)
    return float(slope)


def analyze_growth(
    timeline: GrowthTimeline,
    seed: int = 0,
    n_snapshots: int = 8,
    path_samples: int = 150,
) -> GrowthAnalysis:
    """Run the full growth study on a timeline."""
    rng = np.random.default_rng(seed)
    curve_days = np.linspace(0.0, CRAWL_DAY, 91)
    adoption = timeline.adoption_curve(curve_days)
    snapshot_days = np.linspace(
        OPEN_SIGNUP_DAY / 3.0, CRAWL_DAY, n_snapshots
    )
    snapshots = [
        _snapshot_metrics(timeline, float(day), rng, path_samples)
        for day in snapshot_days
    ]
    return GrowthAnalysis(
        days=curve_days,
        adoption=adoption,
        snapshots=snapshots,
        densification_exponent=fit_densification(snapshots),
        tipping_day=find_tipping_point(curve_days, adoption),
        stabilization_day=find_stabilization(curve_days, adoption),
    )
