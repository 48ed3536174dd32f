"""Checkpoint envelope, retention, and corrupt-fallback behaviour."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import Registry
from repro.store.checkpoint import (
    CheckpointError,
    CheckpointRecord,
    checkpoint_path,
    frontier_from_state,
    list_checkpoint_paths,
    load_checkpoint,
    load_latest,
    stats_from_snapshot,
    write_checkpoint,
)


def make_record(sequence: int, n_pages: int = 10) -> CheckpointRecord:
    return CheckpointRecord(
        sequence=sequence,
        n_pages=n_pages,
        n_edges=n_pages * 3,
        journal_offset=1000 + sequence,
        segments=[f"seg-{i:06d}.edges" for i in range(1, sequence + 1)],
        snapshot={"marker": sequence},
    )


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = write_checkpoint(tmp_path, make_record(1))
        assert path.name == "ckpt-000001.json"
        loaded = load_checkpoint(path)
        assert loaded == make_record(1)

    def test_retention_prunes_oldest(self, tmp_path):
        for sequence in range(1, 6):
            write_checkpoint(tmp_path, make_record(sequence), keep=3)
        names = [p.name for p in list_checkpoint_paths(tmp_path)]
        assert names == ["ckpt-000003.json", "ckpt-000004.json", "ckpt-000005.json"]

    def test_keep_zero_retains_everything(self, tmp_path):
        for sequence in range(1, 4):
            write_checkpoint(tmp_path, make_record(sequence), keep=0)
        assert len(list_checkpoint_paths(tmp_path)) == 3

    def test_missing_directory_lists_empty(self, tmp_path):
        assert list_checkpoint_paths(tmp_path / "nope") == []


class TestCorruption:
    def test_flipped_payload_fails_crc(self, tmp_path):
        path = write_checkpoint(tmp_path, make_record(1))
        document = json.loads(path.read_text())
        document["record"]["n_pages"] = 999_999
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_not_json(self, tmp_path):
        path = checkpoint_path(tmp_path, 1)
        path.write_text("garbage{{{")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_envelope(self, tmp_path):
        path = checkpoint_path(tmp_path, 1)
        path.write_text(json.dumps({"record": {}}))
        with pytest.raises(CheckpointError, match="envelope"):
            load_checkpoint(path)

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        registry = Registry()
        write_checkpoint(tmp_path, make_record(1))
        newest = write_checkpoint(tmp_path, make_record(2), keep=0)
        newest.write_text("corrupted beyond recognition")
        record = load_latest(tmp_path, registry=registry)
        assert record is not None and record.sequence == 1
        assert registry.counter("store.checkpoints_rejected", "").value() == 1

    def test_load_latest_none_when_all_corrupt(self, tmp_path):
        registry = Registry()
        write_checkpoint(tmp_path, make_record(1)).write_text("zap")
        assert load_latest(tmp_path, registry=registry) is None

    def test_load_latest_empty_directory(self, tmp_path):
        assert load_latest(tmp_path, registry=Registry()) is None


class TestRebuilders:
    def test_frontier_from_state(self):
        state = {"queue": [5, 6], "seen": [1, 2, 5, 6]}
        frontier = frontier_from_state(state)
        assert frontier.export_state() == state
        assert frontier.pop() == 5

    def test_stats_from_snapshot_sums_fleet(self):
        snapshot = {
            "started": 10.0,
            "virtual_now": 110.0,
            "frontier": {"queue": [], "seen": [1, 2, 3]},
            "pool": {
                "next": 0,
                "fetchers": [
                    {
                        "pages_fetched": 4,
                        "not_found": 1,
                        "throttled": 2,
                        "server_errors": 0,
                    },
                    {
                        "pages_fetched": 6,
                        "not_found": 0,
                        "throttled": 1,
                        "server_errors": 3,
                    },
                ],
            },
        }
        stats = stats_from_snapshot(snapshot, n_machines=2)
        assert stats.pages_fetched == 10
        assert stats.not_found == 1
        assert stats.throttled == 3
        assert stats.server_errors == 3
        assert stats.virtual_duration == 100.0
        assert stats.n_machines == 2
        assert stats.discovered == 3
