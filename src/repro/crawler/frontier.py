"""BFS frontier for the bidirectional snowball crawl.

A plain FIFO queue with a seen set gives breadth-first order — the
paper's crawl strategy. The seen set is every *discovered* user (seen
in someone's circle list, fetched or not), which is what makes the final
graph larger than the set of crawled profiles (35.1M nodes vs 27.5M
crawled profiles in the paper). The users already popped are the seen
ones no longer queued.
"""

from __future__ import annotations

from collections import deque


class BFSFrontier:
    """FIFO crawl frontier that enqueues each user at most once."""

    def __init__(self) -> None:
        self._queue: deque[int] = deque()
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def add(self, user_id: int) -> bool:
        """Enqueue a user if never seen; True when actually enqueued."""
        if user_id in self._seen:
            return False
        self._seen.add(user_id)
        self._queue.append(user_id)
        return True

    def add_all(self, user_ids) -> int:
        return sum(1 for uid in user_ids if self.add(uid))

    def pop(self) -> int:
        """Dequeue the next user to crawl (FIFO = breadth-first)."""
        return self._queue.popleft()

    def discovered(self, user_id: int) -> bool:
        return user_id in self._seen

    @property
    def n_discovered(self) -> int:
        return len(self._seen)

    # -- checkpointing (see repro.store) -------------------------------------

    def export_state(self) -> dict:
        """JSON-ready snapshot of queue + seen.

        The queue keeps its FIFO order (it drives the crawl sequence);
        the seen set is sorted so equal frontiers serialise identically.
        Ids are coerced to native ints — callers may have fed numpy
        integers, which hash like ints but do not survive JSON.
        """
        return {
            "queue": [int(user_id) for user_id in self._queue],
            "seen": sorted(int(user_id) for user_id in self._seen),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite contents from an :meth:`export_state` snapshot.

        Snapshots from older versions also carry a ``"visited"`` list;
        it is ignored.
        """
        self._queue = deque(int(user_id) for user_id in state["queue"])
        self._seen = {int(user_id) for user_id in state["seen"]}
