"""Tests for circle management and its caps."""

import pytest

from repro.platform.circles import (
    CIRCLE_DISPLAY_LIMIT,
    CircleStore,
    DEFAULT_CIRCLE,
    OUT_CIRCLE_LIMIT,
)
from repro.platform.errors import CircleLimitError, UnknownCircleError


@pytest.fixture
def store() -> CircleStore:
    return CircleStore(owner_id=0)


class TestConstants:
    def test_paper_limits(self):
        assert CIRCLE_DISPLAY_LIMIT == 10_000
        assert OUT_CIRCLE_LIMIT == 5_000


class TestAdd:
    def test_add_creates_link(self, store):
        assert store.add(1) is True
        assert store.contains(1)
        assert store.out_degree() == 1

    def test_add_to_second_circle_is_not_new_link(self, store):
        store.add(1, "friends")
        assert store.add(1, "family") is False
        assert store.out_degree() == 1
        assert store.member_of(1, "friends") and store.member_of(1, "family")

    def test_add_auto_creates_circle(self, store):
        store.add(1, "colleagues")
        assert "colleagues" in store.circle_names()

    def test_self_add_rejected(self, store):
        with pytest.raises(ValueError):
            store.add(0)

    def test_limit_enforced(self):
        store = CircleStore(owner_id=0)
        store.members_by_circle[DEFAULT_CIRCLE] = {}
        # Fill to the cap cheaply.
        store.all_members = {i: None for i in range(1, OUT_CIRCLE_LIMIT + 1)}
        with pytest.raises(CircleLimitError):
            store.add(OUT_CIRCLE_LIMIT + 10)

    def test_limit_does_not_block_existing_contact(self):
        store = CircleStore(owner_id=0)
        store.members_by_circle["friends"] = {1: None}
        store.all_members = {i: None for i in range(1, OUT_CIRCLE_LIMIT + 1)}
        # Re-adding an existing contact to another circle is allowed.
        assert store.add(1, "family") is False

    def test_exempt_account_passes_limit(self):
        store = CircleStore(owner_id=0, exempt_from_limit=True)
        store.all_members = {i: None for i in range(1, OUT_CIRCLE_LIMIT + 1)}
        assert store.add(OUT_CIRCLE_LIMIT + 10) is True


class TestRemove:
    def test_remove_from_all_circles(self, store):
        store.add(1, "friends")
        store.add(1, "family")
        assert store.remove(1) is True
        assert not store.contains(1)

    def test_remove_from_one_circle_keeps_link(self, store):
        store.add(1, "friends")
        store.add(1, "family")
        assert store.remove(1, "friends") is False
        assert store.contains(1)

    def test_remove_last_circle_drops_link(self, store):
        store.add(1, "friends")
        assert store.remove(1, "friends") is True
        assert not store.contains(1)

    def test_remove_unknown_circle_raises(self, store):
        store.add(1)
        with pytest.raises(UnknownCircleError):
            store.remove(1, "nope")

    def test_remove_absent_contact_is_noop(self, store):
        store.create_circle("friends")
        # No link existed, so no link *disappeared*: False, not True.
        assert store.remove(99, "friends") is False

    def test_remove_never_member_returns_false(self, store):
        store.add(1)
        assert store.remove(99) is False
        assert store.contains(1)

    def test_remove_never_member_from_named_circle(self, store):
        store.add(1, "friends")
        assert store.remove(99, "friends") is False

    def test_remove_twice_second_is_false(self, store):
        store.add(1)
        assert store.remove(1) is True
        assert store.remove(1) is False


class TestFlattened:
    def test_insertion_order_preserved(self, store):
        for target in (5, 3, 9):
            store.add(target)
        assert store.flattened() == [5, 3, 9]

    def test_flattened_deduplicates_across_circles(self, store):
        store.add(1, "friends")
        store.add(1, "family")
        store.add(2, "family")
        assert store.flattened() == [1, 2]
