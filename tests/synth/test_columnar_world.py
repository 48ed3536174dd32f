"""Golden proofs: the one store rebuilds the world the dict store built.

The digests below were recorded from the per-object dict store before
it was removed (1,500 users, seed 11, fast engine; the reference engine
for the last test), so the columnar base plus overlays must reproduce
its graph, byte-identical profile pages, follower and contact lists and
a crawl with bit-identical edge arrays and identical stats.  The CI
``million-user`` job checks the same contract at 20k users.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.crawler.bfs import BidirectionalBFSCrawler, CrawlConfig
from repro.crawler.dataset import CrawlStats
from repro.platform.service import GooglePlusService
from repro.serve.cache import page_to_bytes
from repro.synth import build_world, WorldConfig
from repro.synth.world import ProfilesView

GRAPH_SHA = "e545124f596da1800ab601ac5dc3cd021692bea65b32f23ae92a43633c3db513"
SEED_USER = 3
PAGES_SHA = "edf1ff370b087e12dbe5943046d44b28d2a502348323495818b67ce0d3531867"
LISTS_SHA = "addf147f88160ba06d80dd7c70cdb925c994d136069250d2b3c84a18499a0b4c"
CRAWL_EDGES_SHA = "b1ed6e8f75dd09fda91a2334493eb732b0efa115c441204bc85c59c4baa5720e"
CRAWL_STATS = CrawlStats(pages_fetched=400, n_machines=3, discovered=1488)
REFERENCE_PAGES_SHA = (
    "6d4356854cec0fe83551655353d45893ec04aa6a386201597f415dd539e900fc"
)


def _config(engine: str = "fast") -> WorldConfig:
    return WorldConfig(n_users=1_500, seed=11, engine=engine)


def edges_sha(sources, targets) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(sources, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(targets, dtype=np.int64).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def world():
    return build_world(_config())


class TestColumnarWorldEquivalence:
    def test_backend_selected(self, world):
        """The generated world is the service's column base, whole."""
        assert isinstance(world.service, GooglePlusService)
        assert world.service.columns().n == world.n_users == len(world.service)
        assert isinstance(world.profiles, ProfilesView)

    def test_graph_arrays_identical(self, world):
        assert edges_sha(world.graph.sources, world.graph.targets) == GRAPH_SHA
        assert world.seed_user_id() == SEED_USER

    def test_sampled_pages_byte_identical(self, world):
        users = sorted(world.service.user_ids())
        owners = users[::173] + [world.seed_user_id()]
        viewers = [None, 0] + users[::311]
        digest = hashlib.sha256()
        for owner in owners:
            for viewer in viewers:
                digest.update(page_to_bytes(world.service.profile_page(owner, viewer)))
        assert digest.hexdigest() == PAGES_SHA

    def test_degrees_and_followers_identical(self, world):
        digest = hashlib.sha256()
        for uid in sorted(world.service.user_ids())[::97]:
            lists = [world.service.followees(uid), world.service.followers(uid)]
            digest.update(json.dumps(lists).encode())
        assert digest.hexdigest() == LISTS_SHA

    def test_crawl_edge_arrays_bit_identical(self, world):
        crawler = BidirectionalBFSCrawler(
            world.frontend(rate_per_ip=1e9, burst=1e9),
            CrawlConfig(n_machines=3, max_pages=400, request_latency=0.0),
        )
        dataset = crawler.crawl([world.seed_user_id()])
        assert edges_sha(dataset.sources, dataset.targets) == CRAWL_EDGES_SHA
        assert dataset.stats == CRAWL_STATS


class TestReferenceEngineColumnar:
    def test_reference_profiles_convert(self):
        """Reference-engine profiles enter the store through
        ``ColumnarProfileStore.from_profiles`` and render unchanged."""
        world = build_world(_config(engine="reference"))
        digest = hashlib.sha256()
        for uid in (0, 7, 500, 1499):
            digest.update(page_to_bytes(world.service.profile_page(uid, None)))
        assert digest.hexdigest() == REFERENCE_PAGES_SHA
