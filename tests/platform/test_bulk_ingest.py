"""Tests for the bulk ingest path: ``GooglePlusService.ingest_world``.

The load-bearing property is *state identity*: a world adopted by
``ingest_world`` (read from the columns) must look exactly like the same
world built by ``register`` plus one ``add_to_circle`` per edge (held in
the overlays) — including every insertion order the crawler observes
(flattened contact lists, follower lists, notification feeds).
"""

import numpy as np
import pytest

from repro.platform.circles import OUT_CIRCLE_LIMIT
from repro.platform.columnar import ColumnarProfileStore
from repro.platform.errors import CircleLimitError, UnknownUserError
from repro.platform.models import UserProfile
from repro.platform.service import DEFAULT_CIRCLE, GooglePlusService

N_USERS = 40
LABELS = ("friends", "family", "colleagues")


def profile(user_id: int) -> UserProfile:
    return UserProfile(user_id=user_id, name=f"User {user_id}")


def fresh_service(n: int = N_USERS, exempt=()) -> GooglePlusService:
    svc = GooglePlusService(open_signup=True)
    for uid in range(n):
        svc.register(profile(uid), exempt_from_circle_limit=uid in set(exempt))
    return svc


def ingested(src, dst, codes=None, n: int = N_USERS, exempt=()):
    """A service holding ``n`` users and the edge batch as its base."""
    svc = GooglePlusService(open_signup=True)
    codes = np.zeros(len(src), np.uint8) if codes is None else codes
    created = svc.ingest_world(
        ColumnarProfileStore.from_profiles({uid: profile(uid) for uid in range(n)}),
        src,
        dst,
        LABELS,
        codes,
        exempt_ids=exempt,
    )
    return svc, created


def exempt_from_limit(svc: GooglePlusService, uid: int) -> bool:
    """The cap-exempt flag, from the overlay or else the base world."""
    store = svc._circles.get(uid)
    if store is not None:
        return store.exempt_from_limit
    return bool(svc.columns().exempt[uid])


def service_state(svc: GooglePlusService, n: int = N_USERS):
    """Everything the crawl can observe, with insertion orders intact."""
    state = []
    for uid in range(n):
        followees = svc.followees(uid)
        names = svc.circle_names(uid)
        state.append(
            (
                uid,
                exempt_from_limit(svc, uid),
                followees,
                names,
                {
                    name: [v for v in followees if svc.circles_containing(uid, v, (name,))]
                    for name in names
                },
                svc.followers(uid),
                [(note.kind, note.actor_id) for note in svc.notifications(uid)],
            )
        )
    return state


@pytest.fixture
def edges():
    """A batch exercising every interesting shape: repeated owners,
    shared targets, the same pair in several circles, and exact
    duplicate (owner, target, circle) triples."""
    rng = np.random.default_rng(3)
    src = rng.integers(0, N_USERS, size=400)
    dst = rng.integers(0, N_USERS, size=400)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    codes = [i % 3 for i in range(len(src))]
    # Force exact duplicates and same-pair-different-circle cases.
    src = np.concatenate((src, src[:20], src[:10]))
    dst = np.concatenate((dst, dst[:20], dst[:10]))
    codes = codes + codes[:20] + [(i + 1) % 3 for i in range(10)]
    return src, dst, np.array(codes, dtype=np.uint8)


class TestAddEdgesBulkStateIdentity:
    """``ingest_world`` against the scalar path, edge by edge."""

    def test_matches_scalar_ingestion(self, edges):
        src, dst, codes = edges
        scalar = fresh_service()
        new_links = 0
        for u, v, c in zip(src.tolist(), dst.tolist(), codes.tolist()):
            new_links += scalar.add_to_circle(u, v, LABELS[c])
        bulk, created = ingested(src, dst, codes)
        assert created == new_links
        assert service_state(bulk) == service_state(scalar)

    def test_default_circle_when_no_circles_given(self, edges):
        src, dst, _ = edges
        scalar = fresh_service()
        for u, v in zip(src.tolist(), dst.tolist()):
            scalar.add_to_circle(u, v)
        bulk, _ = ingested(src, dst)
        assert service_state(bulk) == service_state(scalar)
        assert bulk.circle_names(int(src[0])) == [DEFAULT_CIRCLE]

    def test_incremental_batches_on_warm_stores(self, edges):
        """Scalar edits after the ingest promote the touched users and
        must merge into the ingested state, not clobber it."""
        src, dst, codes = edges
        half = len(src) // 2
        scalar = fresh_service()
        for u, v, c in zip(src.tolist(), dst.tolist(), codes.tolist()):
            scalar.add_to_circle(u, v, LABELS[c])
        bulk, _ = ingested(src[:half], dst[:half], codes[:half])
        for u, v, c in zip(
            src[half:].tolist(), dst[half:].tolist(), codes[half:].tolist()
        ):
            bulk.add_to_circle(u, v, LABELS[c])
        assert service_state(bulk) == service_state(scalar)

    def test_empty_batch(self):
        svc, created = ingested(np.empty(0, np.int64), np.empty(0, np.int64), n=5)
        assert created == 0
        assert sorted(svc.user_ids()) == [0, 1, 2, 3, 4]


class TestAddEdgesBulkValidation:
    """``ingest_world`` rejects a bad edge batch before any state changes."""

    def test_unknown_source_rejected(self):
        with pytest.raises(UnknownUserError):
            ingested(np.array([99]), np.array([1]), n=5)

    def test_unknown_target_rejected(self):
        with pytest.raises(UnknownUserError):
            ingested(np.array([1]), np.array([-3]), n=5)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="themselves"):
            ingested(np.array([1, 2]), np.array([3, 2]), n=5)

    def test_label_codes_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of label range"):
            ingested(np.array([1]), np.array([2]), np.array([4], np.uint8), n=5)

    def test_length_mismatches_rejected(self):
        with pytest.raises(ValueError):
            ingested(np.array([1, 2]), np.array([3]), np.zeros(2, np.uint8), n=5)
        with pytest.raises(ValueError):
            ingested(np.array([1, 2]), np.array([3, 4]), np.zeros(1, np.uint8), n=5)

    def test_circle_cap_enforced(self):
        targets = np.arange(1, OUT_CIRCLE_LIMIT + 2)
        with pytest.raises(CircleLimitError):
            ingested(
                np.zeros(len(targets), np.int64), targets, n=OUT_CIRCLE_LIMIT + 2
            )

    def test_exempt_owner_escapes_cap(self):
        targets = np.arange(1, OUT_CIRCLE_LIMIT + 2)
        svc, created = ingested(
            np.zeros(len(targets), np.int64),
            targets,
            n=OUT_CIRCLE_LIMIT + 2,
            exempt=(0,),
        )
        assert created == len(targets)
        assert svc.out_degree(0) == len(targets)

    def test_non_empty_service_rejected(self):
        svc = fresh_service(3)
        with pytest.raises(ValueError, match="empty service"):
            svc.ingest_world(
                ColumnarProfileStore.from_profiles({0: profile(0)}),
                np.empty(0, np.int64),
                np.empty(0, np.int64),
                LABELS,
                np.empty(0, np.uint8),
            )


class TestRegisterBulk:
    def test_matches_scalar_registration(self):
        """Ingesting users without edges equals registering each one,
        exempt flags included."""
        exempt = {3, 7}
        scalar = fresh_service(10, exempt=exempt)
        bulk, _ = ingested(
            np.empty(0, np.int64), np.empty(0, np.int64), n=10, exempt=exempt
        )
        assert len(bulk) == 10
        assert service_state(bulk, 10) == service_state(scalar, 10)
