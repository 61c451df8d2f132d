"""Tests for the buffer manager and disk model."""

import pytest

from repro.db.buffer import (
    BufferManager,
    DiskModel,
    index_object_name,
    table_object_name,
)


class TestDiskModel:
    def test_read_seconds_formula(self):
        disk = DiskModel(seek_seconds=0.01, bandwidth_bytes_per_s=1e6)
        assert disk.read_seconds(0) == pytest.approx(0.01)
        assert disk.read_seconds(1_000_000) == pytest.approx(1.01)

    def test_defaults_resemble_hdd(self):
        disk = DiskModel()
        # ~8ms seek, >50 MB/s: a 2011-era 7200rpm disk.
        assert 0.001 < disk.seek_seconds < 0.05
        assert disk.bandwidth_bytes_per_s > 5e7


class TestBufferManager:
    def test_first_touch_charges(self):
        buffers = BufferManager(DiskModel(seek_seconds=0.5))
        charged = buffers.touch("table:t:c", 100)
        assert charged > 0.5
        assert buffers.stats.objects_read == 1
        assert buffers.stats.bytes_read == 100

    def test_second_touch_free(self):
        buffers = BufferManager()
        buffers.touch("x", 10)
        assert buffers.touch("x", 10) == 0.0
        assert buffers.stats.objects_read == 1

    def test_flush_evicts(self):
        buffers = BufferManager()
        buffers.touch("x", 10)
        buffers.flush()
        assert not buffers.is_resident("x")
        assert buffers.touch("x", 10) > 0.0

    def test_warm_marks_resident_without_charge(self):
        buffers = BufferManager()
        buffers.warm("x", 10)
        assert buffers.is_resident("x")
        assert buffers.touch("x", 10) == 0.0
        assert buffers.stats.objects_read == 0

    def test_touched_set_records_all_accesses(self):
        buffers = BufferManager()
        buffers.warm("x", 10)
        buffers.touch("x", 10)
        buffers.touch("y", 10)
        assert buffers.stats.touched == {"x", "y"}

    def test_stats_copy_is_independent(self):
        buffers = BufferManager()
        buffers.touch("x", 10)
        snapshot = buffers.stats.copy()
        buffers.touch("y", 10)
        assert snapshot.objects_read == 1
        assert buffers.stats.objects_read == 2
        assert "y" not in snapshot.touched

    def test_resident_objects_snapshot(self):
        buffers = BufferManager()
        buffers.touch("a", 1)
        resident = buffers.resident_objects()
        resident.add("b")
        assert not buffers.is_resident("b")


class TestObjectNames:
    def test_table_object_name(self):
        assert table_object_name("F", "URI") == "table:f:uri"

    def test_index_object_name(self):
        assert index_object_name("D", ("uri", "RECORD_ID")) == \
            "index:d:uri,record_id"
