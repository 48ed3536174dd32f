"""Incremental sketches over a streaming crawl.

Each sketch consumes batches of crawl observations (edge arrays from
sealed segments, parsed profiles from page events) and can report the
paper's figure inputs at any moment.  Design constraints:

1. **Exactness.**  These are not approximate sketches: every figure a
   sketch reports is *bit-equal* to the batch pipeline recomputed over
   exactly the observations ingested so far.  Degree/CCDF counts and
   component sizes are integer-exact; ratio figures (reciprocity) divide
   the same integers the batch code divides, so the float64 results are
   identical down to the last bit.  That is what lets an aborted crawl's
   partial figures be *proven* against the batch pipeline.
2. **Batch ingestion.**  Edges arrive as numpy arrays (one sealed
   segment, or one epoch's buffered pages) and are processed with
   vectorised operations only — no per-edge Python loop anywhere on the
   crawl's hot path.

Node ids must be non-negative and are used as dense array indexes (the
synthetic worlds allocate them densely from zero); edges are assumed
pre-deduplicated, which the crawler guarantees.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AttributeSketch",
    "ComponentSketch",
    "DegreeSketch",
    "ReciprocitySketch",
    "ccdf_bucket_counts",
    "sample_source_indices",
]

#: Packing base for reciprocity keys; mirrors the crawler's edge-dedup
#: packing, so the same id bound (ids < 2**32) applies.
_PACK = np.int64(1) << np.int64(32)


def ccdf_bucket_counts(degrees) -> list[int]:
    """Power-of-two CCDF buckets: ``counts[k]`` = #values >= ``2**k``.

    The log-scale summary of a degree CCDF (Figure 3's axes are
    log-log): integer-exact, so the live and batch sides agree bitwise.
    Zero values contribute to no bucket; an all-zero sample reports
    ``[]``.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.size == 0:
        return []
    maximum = int(degrees.max())
    if maximum <= 0:
        return []
    return [
        int((degrees >= (1 << k)).sum()) for k in range(maximum.bit_length())
    ]


def sample_source_indices(n: int, k: int) -> np.ndarray:
    """``min(k, n)`` compact indices spread evenly over ``range(n)``.

    Deterministic in ``(n, k)`` alone, so the live path-length refresh
    and its batch recomputation pick identical BFS sources.
    """
    if n <= 0 or k <= 0:
        return np.empty(0, dtype=np.int64)
    k = min(k, n)
    return (np.arange(k, dtype=np.int64) * n) // k


def _grow_to(array: np.ndarray, size: int) -> np.ndarray:
    """Return ``array`` grown (geometrically) to hold ``size`` slots."""
    if size <= len(array):
        return array
    capacity = max(size, 2 * len(array), 1024)
    grown = np.zeros(capacity, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class DegreeSketch:
    """Exact in/out-degree tallies over densely-indexed node ids.

    Tracks, per node id: out-degree, in-degree, and whether the id has
    been *seen* (as a crawled profile or an edge endpoint) — the same
    node universe the batch graph is built over, so degree multisets
    match exactly, isolated profiles included.
    """

    def __init__(self) -> None:
        self._out = np.zeros(0, dtype=np.int64)
        self._in = np.zeros(0, dtype=np.int64)
        self._seen = np.zeros(0, dtype=bool)
        self.n_edges = 0

    def _ensure(self, max_id: int) -> None:
        size = int(max_id) + 1
        self._out = _grow_to(self._out, size)
        self._in = _grow_to(self._in, size)
        self._seen = _grow_to(self._seen, size)

    def add_nodes(self, ids) -> None:
        """Mark ids as part of the node universe (crawled profiles)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        self._ensure(int(ids.max()))
        self._seen[ids] = True

    def add_edges(self, sources, targets) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.size == 0:
            return
        self._ensure(max(int(sources.max()), int(targets.max())))
        # bincount over the dense id range beats np.add.at by an order
        # of magnitude on the per-seal batch sizes this path sees.
        out_counts = np.bincount(sources, minlength=len(self._out))
        in_counts = np.bincount(targets, minlength=len(self._in))
        self._out += out_counts
        self._in += in_counts
        self._seen |= out_counts.astype(bool)
        self._seen |= in_counts.astype(bool)
        self.n_edges += int(sources.size)

    def node_ids(self) -> np.ndarray:
        return np.flatnonzero(self._seen)

    @property
    def n_nodes(self) -> int:
        return int(self._seen.sum())

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every seen node, in ascending node-id order."""
        return self._out[self._seen]

    def in_degrees(self) -> np.ndarray:
        return self._in[self._seen]

    def figures(self) -> dict:
        out_deg = self.out_degrees()
        in_deg = self.in_degrees()
        return {
            "out_ccdf_buckets": ccdf_bucket_counts(out_deg),
            "in_ccdf_buckets": ccdf_bucket_counts(in_deg),
            "max_out": int(out_deg.max()) if out_deg.size else 0,
            "max_in": int(in_deg.max()) if in_deg.size else 0,
        }


def _count_members(sorted_keys: np.ndarray, queries: np.ndarray) -> int:
    """How many of ``queries`` appear in ``sorted_keys`` (both int64)."""
    if sorted_keys.size == 0 or queries.size == 0:
        return 0
    pos = np.searchsorted(sorted_keys, queries)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return int((sorted_keys[pos] == queries).sum())


class ReciprocitySketch:
    """Exact running count of reciprocated directed edges.

    Keeps the edge set as a sorted array of packed ``u * 2**32 + v``
    keys.  Ingesting a batch ``B`` against the existing set ``E`` adds
    ``2 * |{e in B : rev(e) in E}| + |{e in B : rev(e) in B}|``
    reciprocated edges — each newly completed pair reciprocates both of
    its directions, and the within-batch term counts every such edge
    once from each side.  The ratio divides the same two integers the
    batch pipeline's boolean-mask mean divides, so the float64 value is
    bit-identical.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self.n_edges = 0
        self.n_reciprocal = 0

    def add_edges(self, sources, targets) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.size == 0:
            return
        batch = np.sort(sources * _PACK + targets)
        # reverse is sorted for cache locality, not correctness: ordered
        # searchsorted queries walk the haystack nearly sequentially.
        reverse = np.sort(targets * _PACK + sources)
        self.n_reciprocal += 2 * _count_members(self._keys, reverse)
        self.n_reciprocal += _count_members(batch, reverse)
        self._keys = np.insert(
            self._keys, np.searchsorted(self._keys, batch), batch
        )
        self.n_edges += int(sources.size)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ingested edge set, decoded (key-sorted order)."""
        return self._keys // _PACK, self._keys % _PACK

    def value(self) -> float:
        """Fraction of edges whose reverse also exists (0.0 when empty)."""
        if self.n_edges == 0:
            return 0.0
        return self.n_reciprocal / self.n_edges

    def figures(self) -> dict:
        return {
            "reciprocity": self.value(),
            "reciprocal_edges": int(self.n_reciprocal),
        }


class ComponentSketch:
    """Exact weakly-connected-component tracking via vectorised union-find.

    The forest links every root toward the smallest root it meets
    (``np.minimum.at``), iterating until a batch's edges are absorbed —
    each pass strictly lowers some root, so the loop converges in
    O(log) passes of O(batch) work, with no per-edge Python loop.
    """

    def __init__(self) -> None:
        self._parent = np.empty(0, dtype=np.int64)

    def _ensure(self, max_id: int) -> None:
        size = int(max_id) + 1
        if size <= len(self._parent):
            return
        old = len(self._parent)
        capacity = max(size, 2 * old, 1024)
        grown = np.arange(capacity, dtype=np.int64)
        grown[:old] = self._parent
        self._parent = grown

    def _roots(self, ids: np.ndarray) -> np.ndarray:
        parent = self._parent
        roots = parent[ids]
        while True:
            above = parent[roots]
            if np.array_equal(above, roots):
                return roots
            roots = above

    def add_nodes(self, ids) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            self._ensure(int(ids.max()))

    def add_edges(self, sources, targets) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if sources.size == 0:
            return
        self._ensure(max(int(sources.max()), int(targets.max())))
        while True:
            ru = self._roots(sources)
            rv = self._roots(targets)
            differs = ru != rv
            if not differs.any():
                break
            low = np.minimum(ru, rv)[differs]
            high = np.maximum(ru, rv)[differs]
            np.minimum.at(self._parent, high, low)
        # Path compression keeps later root lookups near O(1).
        self._parent[sources] = self._roots(sources)
        self._parent[targets] = self._roots(targets)

    def summary(self, node_ids) -> dict:
        """Component count and giant size over the given node universe."""
        node_ids = np.asarray(node_ids, dtype=np.int64)
        if node_ids.size == 0:
            return {"n_components": 0, "giant_size": 0}
        self._ensure(int(node_ids.max()))
        roots = self._roots(node_ids)
        _, counts = np.unique(roots, return_counts=True)
        return {
            "n_components": int(len(counts)),
            "giant_size": int(counts.max()),
        }


class AttributeSketch:
    """Per-page tallies: attribute presence and country of residence.

    The only sketch fed from profile events rather than edge arrays; the
    per-page cost is a short loop over the profile's public field keys.
    """

    def __init__(self) -> None:
        self.n_profiles = 0
        self.field_counts: dict[str, int] = {}
        self.country_counts: dict[str, int] = {}

    def add_profile(self, profile) -> None:
        self.n_profiles += 1
        counts = self.field_counts
        for key in profile.fields:
            counts[key] = counts.get(key, 0) + 1
        country = profile.country()
        if country is not None:
            self.country_counts[country] = self.country_counts.get(country, 0) + 1

    def add_profiles(self, profiles) -> None:
        """Batch form of :meth:`add_profile` for a buffered page window:
        one C-level Counter pass over all keys instead of a Python dict
        loop per profile."""
        from collections import Counter
        from itertools import chain

        self.n_profiles += len(profiles)
        for key, count in Counter(
            chain.from_iterable(p.fields for p in profiles)
        ).items():
            self.field_counts[key] = self.field_counts.get(key, 0) + count
        countries = Counter(
            country
            for country in (p.country() for p in profiles)
            if country is not None
        )
        for key, count in countries.items():
            self.country_counts[key] = self.country_counts.get(key, 0) + count

    def figures(self) -> dict:
        from repro.platform.fields import FIELD_SPECS

        attributes = {}
        for spec in FIELD_SPECS:
            if spec.key == "name":
                attributes[spec.key] = self.n_profiles
            else:
                attributes[spec.key] = self.field_counts.get(spec.key, 0)
        return {
            "attributes": dict(sorted(attributes.items())),
            "countries": dict(sorted(self.country_counts.items())),
        }
