"""Tests for the live streaming sketches: exactness.

Every sketch claims *bit-equality* with the batch pipeline over the
ingested prefix — these tests check that claim directly against the
real batch implementations (CSR degrees, ``reciprocated_edge_mask``,
``weakly_connected_components``).
"""

import numpy as np

from repro.graph.components import weakly_connected_components
from repro.graph.csr import CSRGraph
from repro.graph.reciprocity import reciprocated_edge_mask
from repro.obs.live import (
    AttributeSketch,
    ComponentSketch,
    DegreeSketch,
    ReciprocitySketch,
    ccdf_bucket_counts,
    sample_source_indices,
)


def random_edges(rng, n_nodes=200, n_edges=1500):
    """Deduplicated random directed edges without self-loops."""
    sources = rng.integers(0, n_nodes, size=n_edges * 2)
    targets = rng.integers(0, n_nodes, size=n_edges * 2)
    keep = sources != targets
    keys = np.unique(sources[keep] * (1 << 32) + targets[keep])
    keys = rng.permutation(keys)[:n_edges]
    return keys // (1 << 32), keys % (1 << 32)


class TestCcdfBucketCounts:
    def test_known_values(self):
        # degrees 1,2,3,4,8: counts[k] = #values >= 2**k
        assert ccdf_bucket_counts([1, 2, 3, 4, 8]) == [5, 4, 2, 1]

    def test_zeros_contribute_nothing(self):
        assert ccdf_bucket_counts([0, 0, 1]) == [1]
        assert ccdf_bucket_counts([0, 0]) == []
        assert ccdf_bucket_counts([]) == []

    def test_integer_exact_on_large_random_sample(self):
        rng = np.random.default_rng(4)
        degrees = rng.geometric(0.05, size=5000)
        counts = ccdf_bucket_counts(degrees)
        for k, count in enumerate(counts):
            assert count == int((degrees >= 2**k).sum())


class TestSampleSourceIndices:
    def test_deterministic_and_sorted(self):
        a = sample_source_indices(1000, 8)
        b = sample_source_indices(1000, 8)
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.sort(a))
        assert len(a) == 8
        assert a[0] == 0
        assert a[-1] < 1000

    def test_k_capped_at_n(self):
        assert np.array_equal(sample_source_indices(3, 8), [0, 1, 2])

    def test_degenerate(self):
        assert sample_source_indices(0, 8).size == 0
        assert sample_source_indices(10, 0).size == 0


class TestDegreeSketch:
    def test_matches_csr_degrees(self):
        rng = np.random.default_rng(7)
        sources, targets = random_edges(rng)
        sketch = DegreeSketch()
        sketch.add_edges(sources, targets)
        graph = CSRGraph.from_edge_arrays(sources, targets)
        assert np.array_equal(sketch.out_degrees(), graph.out_degrees())
        assert np.array_equal(sketch.in_degrees(), graph.in_degrees())
        assert sketch.n_nodes == graph.n
        assert sketch.n_edges == graph.n_edges

    def test_isolated_profiles_join_the_node_universe(self):
        sketch = DegreeSketch()
        sketch.add_edges([1], [2])
        sketch.add_nodes([9])  # crawled page with no surviving edges
        assert np.array_equal(sketch.node_ids(), [1, 2, 9])
        assert sketch.n_nodes == 3
        assert list(sketch.out_degrees()) == [1, 0, 0]

    def test_chunked_ingestion_equals_single_batch(self):
        rng = np.random.default_rng(8)
        sources, targets = random_edges(rng)
        whole = DegreeSketch()
        whole.add_edges(sources, targets)
        chunked = DegreeSketch()
        for i in range(0, len(sources), 97):
            chunked.add_edges(sources[i : i + 97], targets[i : i + 97])
        assert np.array_equal(whole.out_degrees(), chunked.out_degrees())
        assert whole.figures() == chunked.figures()

class TestReciprocitySketch:
    def assert_matches_batch(self, sketch, sources, targets):
        graph = CSRGraph.from_edge_arrays(sources, targets)
        mask = reciprocated_edge_mask(graph)
        assert sketch.n_reciprocal == int(mask.sum())
        # Bit-equality: the same two integers divided by float64 division.
        assert sketch.value() == float(mask.mean())

    def test_exact_on_random_edges(self):
        rng = np.random.default_rng(11)
        sources, targets = random_edges(rng, n_nodes=80)
        sketch = ReciprocitySketch()
        sketch.add_edges(sources, targets)
        self.assert_matches_batch(sketch, sources, targets)
        assert sketch.n_reciprocal > 0  # the test must exercise pairs

    def test_chunked_ingestion_exact(self):
        # Pairs completed across chunk boundaries are the hard case.
        rng = np.random.default_rng(12)
        sources, targets = random_edges(rng, n_nodes=60)
        sketch = ReciprocitySketch()
        for i in range(0, len(sources), 113):
            sketch.add_edges(sources[i : i + 113], targets[i : i + 113])
        self.assert_matches_batch(sketch, sources, targets)

    def test_edge_arrays_round_trip(self):
        sketch = ReciprocitySketch()
        sketch.add_edges([3, 1, 2], [1, 3, 5])
        sources, targets = sketch.edge_arrays()
        assert sorted(zip(sources.tolist(), targets.tolist())) == [
            (1, 3), (2, 5), (3, 1),
        ]

    def test_empty_value_is_zero(self):
        assert ReciprocitySketch().value() == 0.0


class TestComponentSketch:
    def test_matches_batch_wcc(self):
        rng = np.random.default_rng(17)
        # Sparse edges over many nodes → several components.
        sources, targets = random_edges(rng, n_nodes=400, n_edges=300)
        sketch = ComponentSketch()
        node_ids = np.unique(np.concatenate([sources, targets]))
        sketch.add_edges(sources, targets)
        graph = CSRGraph.from_edge_arrays(sources, targets)
        wcc = weakly_connected_components(graph)
        summary = sketch.summary(node_ids)
        assert summary["n_components"] == wcc.n_components
        assert summary["giant_size"] == wcc.giant_size
        assert summary["n_components"] > 1

    def test_isolated_nodes_are_singletons(self):
        sketch = ComponentSketch()
        sketch.add_edges([0], [1])
        sketch.add_nodes([5])
        assert sketch.summary([0, 1, 5]) == {"n_components": 2, "giant_size": 2}

    def test_incremental_equals_batch_ingest(self):
        rng = np.random.default_rng(18)
        sources, targets = random_edges(rng, n_nodes=200, n_edges=400)
        node_ids = np.unique(np.concatenate([sources, targets]))
        incremental = ComponentSketch()
        for i in range(0, len(sources), 59):
            incremental.add_edges(sources[i : i + 59], targets[i : i + 59])
        whole = ComponentSketch()
        whole.add_edges(sources, targets)
        assert incremental.summary(node_ids) == whole.summary(node_ids)

class _FakeProfile:
    def __init__(self, fields, country=None):
        self.fields = fields
        self._country = country

    def country(self):
        return self._country


class TestAttributeSketch:
    def test_tallies_fields_and_countries(self):
        sketch = AttributeSketch()
        sketch.add_profile(_FakeProfile({"name": "a", "gender": "f"}, "US"))
        sketch.add_profile(_FakeProfile({"name": "b"}, "US"))
        sketch.add_profile(_FakeProfile({"name": "c", "gender": "m"}, "IN"))
        figures = sketch.figures()
        assert figures["attributes"]["name"] == 3
        assert figures["attributes"]["gender"] == 2
        assert figures["attributes"]["employment"] == 0
        assert figures["countries"] == {"IN": 1, "US": 2}
