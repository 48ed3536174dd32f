"""Measured cross-network comparison (Table 4, fully from our own code).

The paper's Table 4 mixes its own Google+ measurements with numbers
quoted from other studies. Using the baseline models of
:mod:`repro.synth.baselines`, this analysis *measures* all four rows with
the same instruments, so the comparative claims — Google+ sits between
Twitter and Facebook in reciprocity, has a smaller mean degree than
Facebook, longer paths than the mature networks — can be checked
end-to-end rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.stats import GraphSummary, summarize_graph
from repro.synth.baselines import BASELINE_GENERATORS


@dataclass(frozen=True)
class CrossNetworkComparison:
    """Measured Table 4 rows keyed by network name."""

    rows: dict[str, GraphSummary]

    def reciprocity_ordering_holds(self) -> bool:
        """Twitter < Google+ < Facebook = Orkut = 100%."""
        r = {name: s.reciprocity for name, s in self.rows.items()}
        return (
            r["Twitter-like"] < r["Google+"] < r["Facebook-like"]
            and r["Facebook-like"] == 1.0
            and r["Orkut-like"] == 1.0
        )

    def degree_ordering_holds(self) -> bool:
        """Facebook's mean degree exceeds Google+'s (190 vs 16 in print)."""
        return (
            self.rows["Facebook-like"].mean_in_degree
            > self.rows["Google+"].mean_in_degree
        )


def compare_networks(
    gplus_graph: CSRGraph,
    seed: int = 0,
    baseline_n: int | None = None,
    path_samples: int = 400,
) -> CrossNetworkComparison:
    """Measure the Table 4 rows for Google+ plus all baseline models.

    ``baseline_n`` defaults to the Google+ graph's node count so every
    network is measured at the same scale.
    """
    n = baseline_n if baseline_n is not None else gplus_graph.n
    rows: dict[str, GraphSummary] = {}
    rng = np.random.default_rng(seed)
    rows["Google+"] = summarize_graph(
        gplus_graph, rng, path_samples=path_samples, diameter_sweeps=5
    )
    for offset, (name, generator) in enumerate(BASELINE_GENERATORS.items(), 1):
        graph = generator(n, seed=seed + offset)
        rows[name] = summarize_graph(
            graph,
            np.random.default_rng(seed + offset),
            path_samples=path_samples,
            diameter_sweeps=5,
        )
    return CrossNetworkComparison(rows=rows)
