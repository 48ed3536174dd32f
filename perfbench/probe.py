"""Measurement helpers the benchmark wraps around the program's public calls.

Nothing here reaches inside ``repro``: wall and CPU time come from the
interpreter's clocks, memory from ``/proc/self`` (the kernel's own
accounting), and the proxies forward every call unchanged while timing
or counting it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from repro.crawler.bfs import CrawlHooks

_STATUS = Path("/proc/self/status")
_CLEAR_REFS = Path("/proc/self/clear_refs")


def _status_mb(field: str) -> float:
    for line in _STATUS.read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from {_STATUS}")


def rss_mb() -> float:
    """Resident set size now (VmRSS)."""
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Peak resident set size since start or the last :func:`reset_peak`."""
    return _status_mb("VmHWM")


def reset_peak() -> bool:
    """Reset VmHWM to the current RSS; False where the kernel refuses."""
    try:
        _CLEAR_REFS.write_text("5")
    except OSError:
        return False
    return True


class Probe:
    """Named spans of wall time, CPU time, peak RSS and RSS still held.

    Spans do not nest: each resets the kernel's peak-RSS mark on entry,
    so its ``peak_rss_mb`` is the highest RSS reached inside that call.
    """

    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = {}
        self.peak_resets = True

    @contextmanager
    def span(self, name: str):
        self.peak_resets = reset_peak() and self.peak_resets
        rss0 = rss_mb()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            self.spans[name] = {
                "wall_s": wall,
                "cpu_s": time.process_time() - cpu0,
                "peak_rss_mb": peak_rss_mb(),
                "held_rss_mb": rss_mb() - rss0,
            }

    def wall(self, *names: str) -> float:
        return sum(self.spans[n]["wall_s"] for n in names if n in self.spans)


class TimedFrontend:
    """Forwards to an ``HttpFrontend``, timing every ``handle`` call."""

    def __init__(self, frontend) -> None:
        self._frontend = frontend
        # Read on every fetch: bound here to keep it off __getattr__.
        self.clock = frontend.clock
        self.seconds = 0.0
        self.requests = 0

    def handle(self, request):
        start = time.perf_counter()
        try:
            return self._frontend.handle(request)
        finally:
            self.seconds += time.perf_counter() - start
            self.requests += 1

    def __getattr__(self, name):
        return getattr(self._frontend, name)


class TimedHooks(CrawlHooks):
    """Forwards every crawl event to ``store`` (a ``CrawlHooks``), timing it.

    ``seconds`` is the time spent in the store's hooks, and
    ``checkpoint_seconds`` the part of it spent checkpointing.
    """

    def __init__(self, store) -> None:
        self._store = store
        self.seconds = 0.0
        self.checkpoint_seconds = 0.0
        self.checkpoints = 0

    def _call(self, name, *args):
        start = time.perf_counter()
        try:
            return getattr(self._store, name)(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.seconds += elapsed
            if name == "on_checkpoint":
                self.checkpoint_seconds += elapsed
                self.checkpoints += 1

    def bind_clock(self, clock):
        return self._call("bind_clock", clock)

    def resume_state(self):
        return self._call("resume_state")

    def on_resume(self, resume):
        return self._call("on_resume", resume)

    def on_page(self, user_id, profile, new_edges):
        return self._call("on_page", user_id, profile, new_edges)

    def should_checkpoint(self, n_pages, virtual_now):
        return self._call("should_checkpoint", n_pages, virtual_now)

    def on_checkpoint(self, snapshot):
        return self._call("on_checkpoint", snapshot)

    def on_dead_letter(self, user_id, reason, virtual_now):
        return self._call("on_dead_letter", user_id, reason, virtual_now)

    def on_redrive(self, user_id, virtual_now):
        return self._call("on_redrive", user_id, virtual_now)

    def on_abort(self, error):
        return self._call("on_abort", error)

    def on_finish(self, dataset):
        return self._call("on_finish", dataset)


def count_calls(obj, method: str) -> list[int]:
    """Count calls to ``obj.method`` (including the object's own calls).

    Installs an instance attribute over the bound method; returns a
    one-element list holding the running count.
    """
    inner = getattr(obj, method)
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return inner(*args, **kwargs)

    setattr(obj, method, counted)
    return counter
