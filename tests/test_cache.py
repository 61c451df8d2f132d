"""Tests for the ingestion cache: policies, granularities, eviction."""

import threading

import pytest
from hypothesis import given, strategies as st

from repro.core import CacheGranularity, CachePolicy, IngestionCache, WHOLE_FILE
from repro.core.cache import covers
from repro.db import Column, ColumnBatch, DataType


def batch(n=10):
    return ColumnBatch(
        ["sample_time", "sample_value"],
        [
            Column.from_pylist(DataType.TIMESTAMP, list(range(n))),
            Column.from_pylist(DataType.FLOAT64, [float(i) for i in range(n)]),
        ],
    )


class TestDiscardPolicy:
    def test_store_is_noop(self):
        cache = IngestionCache(CachePolicy.DISCARD)
        cache.store("f1", batch())
        assert not cache.contains("f1")
        assert cache.lookup("f1") is None
        assert len(cache) == 0


class TestUnboundedFileGranular:
    def test_store_and_lookup(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch())
        assert cache.contains("f1")
        assert cache.lookup("f1").num_rows == 10
        assert cache.stats.hits == 1

    def test_any_interval_served_by_file_entry(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch())
        assert cache.contains("f1", (3, 5))
        assert cache.lookup("f1", (3, 5)).num_rows == 10

    def test_miss_counted(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        assert cache.lookup("nope") is None
        assert cache.stats.misses == 1

    def test_duplicate_store_ignored(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch())
        cache.store("f1", batch())
        assert cache.stats.insertions == 1

    def test_cached_uris(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("a", batch())
        cache.store("b", batch())
        assert cache.cached_uris() == {"a", "b"}

    def test_invalidate(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("a", batch())
        cache.invalidate("a")
        assert not cache.contains("a")
        assert cache.stats.current_bytes == 0

    def test_invalidate_counts(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("a", batch())
        cache.store("b", batch())
        assert cache.invalidate("a") == 1
        assert cache.stats.invalidations == 1
        assert cache.invalidate("a") == 0  # already gone: nothing counted
        assert cache.stats.invalidations == 1
        assert cache.stats.current_bytes == batch().nbytes()


class TestStaleness:
    """Entries record the file's (mtime_ns, size) signature at store time;
    a lookup presenting a different signature invalidates and misses."""

    def test_matching_signature_hits(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("a", batch(), signature=(100, 64))
        assert cache.lookup("a", signature=(100, 64)) is not None
        assert cache.stats.hits == 1
        assert cache.stats.invalidations == 0

    def test_changed_signature_invalidates_and_misses(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("a", batch(), signature=(100, 64))
        assert cache.lookup("a", signature=(200, 64)) is None
        assert cache.stats.misses == 1
        assert cache.stats.invalidations == 1
        assert not cache.contains("a")
        assert cache.stats.current_bytes == 0

    def test_no_signature_lookup_skips_validation(self):
        """A lookup with nothing to compare (the file could not be
        observed) still hits."""
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("a", batch(), signature=(100, 64))
        assert cache.lookup("a") is not None

    def test_unsigned_entry_never_invalidated(self):
        """Entries stored without a signature (legacy stores) always serve."""
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("a", batch())
        assert cache.lookup("a", signature=(1, 2)) is not None

    def test_tuple_granular_invalidates_all_intervals(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)
        cache.store("a", batch(3), (0, 10), signature=(100, 64))
        cache.store("a", batch(3), (90, 100), signature=(100, 64))
        assert cache.lookup("a", (1, 9), signature=(999, 64)) is None
        assert cache.stats.invalidations == 2
        assert not cache.contains("a", (91, 99))
        assert cache.stats.current_bytes == 0


class TestTupleGranular:
    def make(self):
        return IngestionCache(
            CachePolicy.UNBOUNDED, CacheGranularity.TUPLE
        )

    def test_superset_interval_serves(self):
        cache = self.make()
        cache.store("f1", batch(), (0, 100))
        assert cache.contains("f1", (10, 20))
        assert cache.lookup("f1", (10, 20)) is not None

    def test_partial_overlap_misses(self):
        """§3: the whole file must be mounted when any required tuple is
        missing from the cache."""
        cache = self.make()
        cache.store("f1", batch(), (0, 50))
        assert not cache.contains("f1", (40, 60))
        assert cache.lookup("f1", (40, 60)) is None

    def test_whole_file_request_needs_whole_file_entry(self):
        cache = self.make()
        cache.store("f1", batch(), (0, 50))
        assert not cache.contains("f1", WHOLE_FILE)
        cache.store("f1", batch(), WHOLE_FILE)
        assert cache.contains("f1", WHOLE_FILE)

    def test_multiple_intervals_per_file(self):
        cache = self.make()
        cache.store("f1", batch(3), (0, 10))
        cache.store("f1", batch(3), (90, 100))
        assert cache.contains("f1", (1, 9))
        assert cache.contains("f1", (91, 99))
        assert not cache.contains("f1", (50, 60))

    def test_cached_uris_tuple_keys(self):
        cache = self.make()
        cache.store("f1", batch(), (0, 10))
        assert cache.cached_uris() == {"f1"}


class TestLru:
    def test_requires_capacity(self):
        with pytest.raises(ValueError):
            IngestionCache(CachePolicy.LRU)

    def test_eviction_under_pressure(self):
        one_batch_bytes = batch().nbytes()
        cache = IngestionCache(
            CachePolicy.LRU, capacity_bytes=int(one_batch_bytes * 2.5)
        )
        cache.store("a", batch())
        cache.store("b", batch())
        cache.store("c", batch())
        assert cache.stats.evictions >= 1
        assert cache.stats.current_bytes <= int(one_batch_bytes * 2.5)
        assert not cache.contains("a")  # least recently used went first

    def test_lookup_refreshes_recency(self):
        one = batch().nbytes()
        cache = IngestionCache(CachePolicy.LRU, capacity_bytes=int(one * 2.5))
        cache.store("a", batch())
        cache.store("b", batch())
        cache.lookup("a")  # a becomes most recent
        cache.store("c", batch())
        assert cache.contains("a")
        assert not cache.contains("b")

    def test_oversized_entry_rejected_at_admission(self):
        """An entry larger than the whole capacity can never fit: admitting
        it would either blow the budget forever (the old ``len > 1`` evict
        guard kept it) or evict everything else for nothing. It is rejected
        outright and counted."""
        cache = IngestionCache(CachePolicy.LRU, capacity_bytes=1)
        cache.store("a", batch())
        assert not cache.contains("a")
        assert cache.stats.rejected == 1
        assert cache.stats.current_bytes == 0


class TestIntervalCoverage:
    """FILE-granularity entries now carry a coverage interval (selective
    mounts store partial batches); requests are served only by covering
    entries, and re-storing wider coverage replaces narrower entries."""

    def test_partial_entry_serves_only_covered_requests(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch(), interval=(100, 500))
        assert cache.contains("f1", (200, 400))
        assert cache.contains("f1", (100, 500))
        assert not cache.contains("f1", (50, 400))
        assert not cache.contains("f1")  # whole-file request
        assert cache.lookup("f1", (50, 400)) is None
        assert cache.stats.misses == 1

    def test_widen_on_remount_replaces_narrower_entry(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch(4), interval=(100, 500))
        cache.store("f1", batch(10), interval=WHOLE_FILE)
        assert len(cache) == 1
        assert cache.lookup("f1").num_rows == 10
        assert cache.contains("f1", (50, 400))

    def test_narrower_restore_is_noop(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch(10), interval=WHOLE_FILE)
        cache.store("f1", batch(4), interval=(100, 500))
        assert len(cache) == 1
        assert cache.lookup("f1").num_rows == 10  # wide entry kept

    def test_disjoint_coverage_keeps_latest(self):
        """FILE granularity holds one entry per URI: a non-covering,
        non-subsumed re-store still replaces (coverage may shrink, but
        accounting stays exact)."""
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch(4), interval=(100, 500))
        cache.store("f1", batch(5), interval=(600, 900))
        assert len(cache) == 1
        assert cache.contains("f1", (600, 900))
        # The displaced disjoint entry must leave the byte accounting too.
        assert cache.stats.current_bytes == batch(5).nbytes()


class TestExactByteAccounting:
    def test_store_widen_evict_invalidate_balance(self):
        """current_bytes equals the sum of retained entries after every
        mutation — stores, widen-replacements, evictions, invalidations."""
        small, big = batch(4), batch(10)
        capacity = small.nbytes() + big.nbytes()
        cache = IngestionCache(CachePolicy.LRU, capacity_bytes=capacity)

        cache.store("a", batch(4), interval=(100, 500))
        assert cache.stats.current_bytes == small.nbytes()

        cache.store("a", batch(10))  # widen: replaces, accounting swaps
        assert cache.stats.current_bytes == big.nbytes()
        assert len(cache) == 1

        cache.store("b", batch(4))
        assert cache.stats.current_bytes == big.nbytes() + small.nbytes()

        cache.store("c", batch(10))  # evicts "a" (LRU) to fit
        assert cache.stats.evictions >= 1
        assert cache.stats.current_bytes <= capacity

        dropped = cache.invalidate("c")
        assert dropped == 1
        assert cache.stats.current_bytes == small.nbytes()

    def test_rejected_store_leaves_accounting_untouched(self):
        one = batch(4).nbytes()
        cache = IngestionCache(CachePolicy.LRU, capacity_bytes=one)
        cache.store("a", batch(4))
        before = cache.stats.current_bytes
        cache.store("huge", batch(100))
        assert cache.stats.rejected == 1
        assert cache.stats.current_bytes == before
        assert cache.contains("a")  # nothing was evicted for the reject


@pytest.mark.locktrace
class TestConcurrency:
    """Regression: mount-pool workers store into one shared cache while the
    consumer looks up and invalidates. Before the cache grew its lock, the
    LRU OrderedDict could corrupt mid-eviction (RuntimeError/KeyError) and
    current_bytes could drift from the entries actually held."""

    def test_threaded_store_lookup_invalidate_hammer(self):
        one = batch().nbytes()
        cache = IngestionCache(CachePolicy.LRU, capacity_bytes=int(one * 3.5))
        uris = [f"f{i}" for i in range(8)]
        errors = []
        barrier = threading.Barrier(4)

        def hammer(worker):
            try:
                barrier.wait(timeout=10)
                for i in range(300):
                    uri = uris[(worker + i) % len(uris)]
                    cache.store(uri, batch())
                    got = cache.lookup(uri)
                    assert got is None or got.num_rows == 10
                    cache.contains(uris[i % len(uris)])
                    if i % 17 == 0:
                        cache.invalidate(uri)
                    if i % 61 == 0:
                        cache.cached_uris()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        # Post-hammer invariants: byte accounting matches the survivors.
        assert cache.stats.current_bytes == len(cache) * one
        assert cache.stats.current_bytes <= int(one * 3.5)


class TestCovers:
    def test_basic(self):
        assert covers((0, 10), (2, 5))
        assert covers((0, 10), (0, 10))
        assert not covers((0, 10), (5, 11))
        assert not covers((5, 10), (4, 6))

    @given(
        st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
        st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    )
    def test_covers_matches_set_containment(self, entry, request):
        e = (min(entry), max(entry))
        r = (min(request), max(request))
        expected = set(range(r[0], r[1] + 1)) <= set(range(e[0], e[1] + 1))
        assert covers(e, r) == expected


class TestPerUriIndex:
    """The TUPLE-granular key lookup walks only the URI's own entries via
    the secondary index — a miss on one file must not scan every other
    file's entries, and the index must track evictions/invalidations."""

    def test_index_tracks_store_and_invalidate(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)
        cache.store("f1", batch(3), (0, 10))
        cache.store("f1", batch(3), (90, 100))
        cache.store("f2", batch(3), (0, 10))
        assert cache.cached_uris() == {"f1", "f2"}
        cache.invalidate("f1")
        assert cache.cached_uris() == {"f2"}
        assert not cache.contains("f1", (1, 9))
        assert cache.contains("f2", (1, 9))

    def test_index_tracks_eviction(self):
        one = batch().nbytes()
        cache = IngestionCache(
            CachePolicy.LRU,
            CacheGranularity.TUPLE,
            capacity_bytes=int(one * 2.5),
        )
        cache.store("a", batch(), (0, 10))
        cache.store("b", batch(), (0, 10))
        cache.store("c", batch(), (0, 10))
        assert cache.stats.evictions >= 1
        assert "a" not in cache.cached_uris()
        assert not cache.contains("a", (1, 9))

    def test_subsumed_entries_dropped_from_index(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)
        cache.store("f1", batch(3), (0, 10))
        cache.store("f1", batch(3), (20, 30))
        cache.store("f1", batch(9), (0, 50))  # subsumes both
        assert len(cache) == 1
        assert cache.contains("f1", (5, 25))
        cache.invalidate("f1")
        assert len(cache) == 0
        assert cache.cached_uris() == set()

    def test_lookup_cost_is_per_uri_not_global(self):
        """With N URIs each holding one entry, a tuple-granular miss on one
        URI consults only that URI's entries. Covered behaviorally: a miss
        on a URI with no entries is answered without touching others (the
        index has no bucket at all)."""
        cache = IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)
        for i in range(50):
            cache.store(f"f{i}", batch(2), (0, 10))
        assert not cache.contains("absent", (0, 10))
        assert cache.lookup("absent", (0, 10)) is None
        assert cache.stats.misses == 1


class TestCacheStatsHelpers:
    def test_hit_rate_zero_when_untouched(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        assert cache.stats.hit_rate() == 0.0

    def test_hit_rate_counts_lookups_only(self):
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        cache.store("f1", batch())
        cache.lookup("f1")
        cache.lookup("f1")
        cache.lookup("absent")
        assert cache.stats.hit_rate() == pytest.approx(2 / 3)

