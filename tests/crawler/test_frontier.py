"""Tests for the BFS frontier."""

import numpy as np

from repro.crawler.frontier import BFSFrontier


class TestFrontier:
    def test_fifo_order(self):
        frontier = BFSFrontier()
        frontier.add_all([3, 1, 2])
        assert [frontier.pop() for _ in range(3)] == [3, 1, 2]

    def test_dedup_on_add(self):
        frontier = BFSFrontier()
        assert frontier.add(1)
        assert not frontier.add(1)
        assert len(frontier) == 1

    def test_popped_user_cannot_requeue(self):
        frontier = BFSFrontier()
        frontier.add(1)
        frontier.pop()
        assert not frontier.add(1)

    def test_add_all_counts_new(self):
        frontier = BFSFrontier()
        frontier.add(1)
        assert frontier.add_all([1, 2, 3]) == 2

    def test_visited_and_discovered(self):
        """A popped (visited) user is a seen one no longer queued."""
        frontier = BFSFrontier()
        frontier.add_all([1, 2])
        assert frontier.discovered(1)
        frontier.pop()
        assert frontier.discovered(1)
        assert frontier.n_discovered == 2
        assert frontier.export_state() == {"queue": [2], "seen": [1, 2]}

    def test_bool_reflects_queue(self):
        frontier = BFSFrontier()
        assert not frontier
        frontier.add(1)
        assert frontier
        frontier.pop()
        assert not frontier

    def test_mixed_int_and_numpy_int_dedup(self):
        # Circle lists arrive as numpy int64; seeds as python ints.  Both
        # hash identically, so the same id must dedup across the types.
        frontier = BFSFrontier()
        assert frontier.add(5)
        assert not frontier.add(np.int64(5))
        assert frontier.add(np.int64(6))
        assert not frontier.add(6)
        assert len(frontier) == 2
        assert frontier.n_discovered == 2

    def test_add_all_accepts_a_generator(self):
        frontier = BFSFrontier()
        added = frontier.add_all(uid * 2 for uid in range(4))
        assert added == 4
        assert [frontier.pop() for _ in range(4)] == [0, 2, 4, 6]

    def test_add_all_generator_with_duplicates(self):
        frontier = BFSFrontier()
        assert frontier.add_all(uid % 3 for uid in range(9)) == 3


class TestStateExport:
    def test_round_trip(self):
        frontier = BFSFrontier()
        frontier.add_all([7, 3, 9, 5])
        frontier.pop()
        state = frontier.export_state()
        restored = BFSFrontier()
        restored.restore_state(state)
        assert restored.export_state() == state
        assert [restored.pop() for _ in range(3)] == [3, 9, 5]
        assert not restored.add(7)

    def test_restore_ignores_legacy_visited_list(self):
        restored = BFSFrontier()
        restored.restore_state({"queue": [2], "seen": [1, 2], "visited": [1]})
        assert restored.export_state() == {"queue": [2], "seen": [1, 2]}
        assert not restored.add(1)

    def test_export_coerces_numpy_ids_to_ints(self):
        frontier = BFSFrontier()
        frontier.add(np.int64(42))
        state = frontier.export_state()
        assert type(state["queue"][0]) is int
        assert type(state["seen"][0]) is int

    def test_sets_serialise_sorted(self):
        frontier = BFSFrontier()
        frontier.add_all([9, 1, 5])
        state = frontier.export_state()
        assert state["seen"] == [1, 5, 9]
        assert state["queue"] == [9, 1, 5]  # FIFO order is preserved
