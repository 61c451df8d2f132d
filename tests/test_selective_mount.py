"""Record-granular selective mounting (perf tentpole).

Covers the full request flow — rule (1) intervals on plan nodes, the
executor's R-table byte map, :meth:`MountService.request_for`, the
extractors' ``mount_selective``, and the interval-aware ingestion cache —
plus the volume-level selective read's staleness and truncation behavior.
Equivalence is the headline: a narrow-window query must return byte-identical
rows whether mounting is selective or whole-file, serial or pooled, cached
or not. The differential oracle (``tests/test_oracle.py``) judges the same
axes against eager ingestion.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.mseed.iohooks import FileSource
from repro.core import (
    CacheGranularity,
    CachePolicy,
    IngestionCache,
    MountService,
    TwoStageExecutor,
)
from repro.core.recordmap import RecordMapIndex
from repro.db import Database
from repro.db.errors import StaleFileError, TruncatedFileError
from repro.db.interval import INF, WHOLE_FILE
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.ingest.formats import MountRequest, RecordSpan
from repro.ingest.schema import RECORD_TABLE, ensure_schema
from repro.ingest.xseed_format import XSeedExtractor
from repro.mseed import (
    FileRepository,
    RepositorySpec,
    generate_repository,
    read_selected_records,
)

# Day-long files of 96 records each: dense enough that a 30-minute window
# touches ~3% of every file's records, so record pruning (not file pruning)
# carries the reduction.
DENSE_SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE",),
    days=1,
    sample_rate=0.2,
    samples_per_record=180,
)

NARROW_SQL = (
    "SELECT D.uri, D.sample_time, D.sample_value "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time >= '2010-01-10T10:00:00.000' "
    "AND D.sample_time < '2010-01-10T10:30:00.000' "
    "ORDER BY D.uri, D.sample_time"
)

WIDE_SQL = (
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time >= '2010-01-10T06:00:00.000' "
    "AND D.sample_time < '2010-01-10T18:00:00.000'"
)


@pytest.fixture(scope="module")
def dense_repo(tmp_path_factory) -> FileRepository:
    root = tmp_path_factory.mktemp("dense_repo")
    generate_repository(root, DENSE_SPEC)
    return FileRepository(root)


def make_executor(repo, *, selective=True, cache=None):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(
        db, RepositoryBinding(repo), cache=cache, selective_mounts=selective
    )


class TestEquivalence:
    def test_identical_rows_across_all_configurations(self, dense_repo, engine):
        """selective on/off x workers 1/4 (a standalone executor, a query
        service's scheduler) x cache retained/discarded."""
        baseline = None
        for selective, workers, policy in itertools.product(
            (False, True), (1, 4), (CachePolicy.DISCARD, CachePolicy.UNBOUNDED)
        ):
            executor = engine(
                dense_repo, workers, selective_mounts=selective,
                cache=IngestionCache(policy),
            )
            rows = executor.execute(NARROW_SQL).rows
            assert rows, "narrow window unexpectedly empty"
            if baseline is None:
                baseline = rows
            assert rows == baseline, (
                f"answer drifted at selective={selective}, workers={workers}, "
                f"cache={policy}"
            )

    def test_cached_rerun_matches_and_uses_cache_scans(self, dense_repo):
        executor = make_executor(
            dense_repo, cache=IngestionCache(CachePolicy.UNBOUNDED)
        )
        first = executor.execute(NARROW_SQL).rows
        second = executor.execute(NARROW_SQL)
        assert second.rows == first
        # The covering entries served the identical request: no re-mounts.
        assert second.trace.counters["files_mounted"] == 0
        assert second.trace.counters["cache_scans"] > 0

    def test_wider_query_remounts_and_widens_coverage(self, dense_repo):
        """A narrow mount's cache entry must not serve a wider request."""
        cache = IngestionCache(CachePolicy.UNBOUNDED)
        executor = make_executor(dense_repo, cache=cache)
        narrow = executor.execute(NARROW_SQL).rows
        full_ex = make_executor(dense_repo, selective=False)
        assert executor.execute(WIDE_SQL).rows == full_ex.execute(WIDE_SQL).rows
        # Widen-on-remount: still one entry per file, now with the wider
        # coverage — and the narrow query is served from it.
        assert len(cache) == len(dense_repo.uris())
        again = executor.execute(NARROW_SQL)
        assert again.rows == narrow
        assert again.trace.counters["files_mounted"] == 0


class TestAccounting:
    def test_bytes_and_decodes_cut_at_least_5x(self, dense_repo):
        full = make_executor(dense_repo, selective=False)
        full = full.execute(NARROW_SQL).trace.counters
        sel = make_executor(dense_repo, selective=True)
        sel = sel.execute(NARROW_SQL).trace.counters
        assert sel["selective_mounts"] == sel["files_mounted"]
        assert sel["records_skipped"] > 0
        assert full["bytes_read"] >= 5 * sel["bytes_read"]
        assert full["records_decoded"] >= 5 * sel["records_decoded"]

    def test_selective_bytes_match_span_lengths_exactly(self, dense_repo):
        """bytes_read charges exactly the byte ranges of selected records."""
        uri = dense_repo.uris()[0]
        path = dense_repo.path_of(uri)
        extractor = XSeedExtractor()
        meta = extractor.extract_metadata(FileSource(path, uri))
        spans = meta.records.spans()
        overlapping = [
            s for s in spans
            if s.start_time <= spans[2].end_time  # first three records
        ]
        interval = (spans[0].start_time, spans[2].end_time)
        selected = read_selected_records(FileSource(path, uri), interval, spans)
        assert selected.bytes_read == sum(s.byte_length for s in overlapping)
        assert selected.records_decoded == len(overlapping)
        assert selected.records_skipped == len(spans) - len(overlapping)

    def test_header_walk_fallback_skips_payloads(self, dense_repo):
        """Without a byte map the walk still never reads skipped payloads."""
        uri = dense_repo.uris()[0]
        path = dense_repo.path_of(uri)
        extractor = XSeedExtractor()
        meta = extractor.extract_metadata(FileSource(path, uri))
        spans = meta.records.spans()
        interval = (spans[0].start_time, spans[0].end_time)
        walked = read_selected_records(FileSource(path, uri), interval)
        mapped = read_selected_records(FileSource(path, uri), interval, spans)
        assert walked.record_id.tolist() == mapped.record_id.tolist()
        assert walked.samples.tolist() == mapped.samples.tolist()
        # The walk pays 64 bytes per header on top of the selected payloads,
        # but far less than the whole file.
        assert walked.bytes_read > mapped.bytes_read
        assert walked.bytes_read < path.stat().st_size


class TestStaleByteMap:
    def _spans(self, repo, uri):
        extractor = XSeedExtractor()
        meta = extractor.extract_metadata(FileSource(repo.path_of(uri), uri))
        return meta.records.spans()

    def test_drifted_start_time_raises_stale(self, dense_repo):
        uri = dense_repo.uris()[0]
        spans = list(self._spans(dense_repo, uri))
        bad = spans[1]
        spans[1] = RecordSpan(
            record_id=bad.record_id,
            byte_offset=bad.byte_offset,
            byte_length=bad.byte_length,
            start_time=bad.start_time + 1,  # metadata drifted vs the file
            end_time=bad.end_time + 1,
        )
        with pytest.raises(StaleFileError):
            read_selected_records(
                FileSource(dense_repo.path_of(uri), uri),
                (spans[1].start_time, spans[1].end_time),
                spans,
            )

    def test_span_beyond_file_size_raises_truncated(self, dense_repo):
        uri = dense_repo.uris()[0]
        path = dense_repo.path_of(uri)
        spans = list(self._spans(dense_repo, uri))
        last = spans[-1]
        spans[-1] = RecordSpan(
            record_id=last.record_id,
            byte_offset=last.byte_offset + 10,  # runs past end of file
            byte_length=last.byte_length,
            start_time=last.start_time,
            end_time=last.end_time,
        )
        with pytest.raises(TruncatedFileError):
            read_selected_records(
                FileSource(path, uri), (last.start_time, last.end_time), spans
            )

    def test_a_span_claiming_terabytes_is_not_read(self, dense_repo):
        """A stale length far past the end of the file fails on the file
        size: the read of its range stops at the end of the file."""
        uri = dense_repo.uris()[0]
        path = dense_repo.path_of(uri)
        spans = list(self._spans(dense_repo, uri))
        bad = spans[1]
        spans[1] = RecordSpan(
            record_id=bad.record_id,
            byte_offset=bad.byte_offset,
            byte_length=10**13,
            start_time=bad.start_time,
            end_time=bad.end_time,
        )
        with pytest.raises(TruncatedFileError) as excinfo:
            read_selected_records(
                FileSource(path, uri), (spans[0].start_time, bad.end_time), spans
            )
        assert excinfo.value.offset == bad.byte_offset

    def test_service_surfaces_stale_map_with_uri(self, dense_repo):
        """A stale map through the whole mount path names the file."""
        uri = dense_repo.uris()[0]
        spans = list(self._spans(dense_repo, uri))
        first = spans[0]
        spans[0] = RecordSpan(
            record_id=first.record_id,
            byte_offset=first.byte_offset,
            byte_length=first.byte_length,
            start_time=first.start_time - 7,
            end_time=first.end_time - 7,
        )
        service = MountService(
            RepositoryBinding(dense_repo),
            IngestionCache(CachePolicy.DISCARD),
            record_map_provider=lambda u, t: tuple(spans),
        )
        request = MountRequest(
            interval=(first.start_time - 7, first.end_time - 7),
            records=tuple(spans),
        )
        with pytest.raises(StaleFileError) as excinfo:
            service._extract(uri, "D", request)
        assert excinfo.value.uri == uri


class TestEmptyInterval:
    CONTRADICTORY_SQL = (
        "SELECT COUNT(*) AS n FROM F JOIN D ON F.uri = D.uri "
        "WHERE D.sample_time > '2010-01-10T12:00:00.000' "
        "AND D.sample_time < '2010-01-10T06:00:00.000'"
    )

    def test_contradictory_predicate_never_touches_disk(self, dense_repo):
        executor = make_executor(dense_repo)
        result = executor.execute(self.CONTRADICTORY_SQL)
        assert result.rows == [(0,)]
        assert result.trace.counters["files_mounted"] == 0
        assert result.trace.counters["bytes_read"] == 0

    def test_contradictory_predicate_survives_missing_file(
        self, tmp_path
    ):
        """The pruned branch is never extracted, so even a deleted file
        cannot fail a query that selects nothing from it."""
        generate_repository(tmp_path, DENSE_SPEC)
        repo = FileRepository(tmp_path)
        db = Database()
        lazy_ingest_metadata(db, repo)
        for uri in repo.uris():
            repo.path_of(uri).unlink()
        executor = TwoStageExecutor(db, RepositoryBinding(repo))
        result = executor.execute(self.CONTRADICTORY_SQL)
        assert result.rows == [(0,)]


class TestRequestFor:
    def test_unbounded_predicate_yields_no_request(self, dense_repo):
        service = MountService(
            RepositoryBinding(dense_repo),
            IngestionCache(CachePolicy.DISCARD),
        )
        assert service.request_for("u", "D", "d", None) is None

    def test_selective_disabled_yields_no_request(self, dense_repo):
        service = MountService(
            RepositoryBinding(dense_repo),
            IngestionCache(CachePolicy.DISCARD),
            selective=False,
        )
        from repro.db.expr import ColumnRef, Comparison, Literal
        from repro.db.types import DataType

        predicate = Comparison(
            ">",
            ColumnRef("d.sample_time", DataType.TIMESTAMP),
            Literal(10, DataType.TIMESTAMP),
        )
        assert service.request_for("u", "D", "d", predicate) is None

    def test_request_semantics(self):
        assert MountRequest().selects_all
        assert not MountRequest().selects_nothing
        empty = MountRequest(interval=(10, 5))
        assert empty.selects_nothing
        bounded = MountRequest(interval=(100, 200))
        assert not bounded.selects_all
        assert bounded.wants(150, 250)
        assert bounded.wants(200, 300)  # closed bounds
        assert not bounded.wants(201, 300)
        assert MountRequest(interval=(-INF, INF)).interval == WHOLE_FILE


class TestTupleGranularityStillWorks:
    def test_tuple_cache_with_selective_mounting(self, dense_repo):
        cache = IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)
        executor = make_executor(dense_repo, cache=cache)
        first = executor.execute(NARROW_SQL).rows
        second = executor.execute(NARROW_SQL)
        assert first == second.rows
        assert second.trace.counters["cache_scans"] > 0


class TestRecordMapIndex:
    """The byte map is a per-URI slice of ``R``'s columns, not a dictionary
    of every record built before the first mount."""

    def expected(self, repo):
        extractor = XSeedExtractor()
        return {
            uri: extractor.extract_metadata(
                FileSource(repo.path_of(uri), uri)
            ).records.spans()
            for uri in repo.uris()
        }

    def test_serves_each_files_spans_in_record_order(self, dense_repo):
        db = Database()
        lazy_ingest_metadata(db, dense_repo)
        index = RecordMapIndex(db)
        expected = self.expected(dense_repo)
        for uri, spans in expected.items():
            assert index(uri, "D") == spans
            assert all(type(v) is int for v in vars(index(uri, "D")[0]).values())
        assert index(uri, "D") is index(uri, "D")  # memoised per URI
        assert index("2010/nowhere.xseed", "D") is None

    def test_row_order_of_r_does_not_matter(self, dense_repo):
        source = Database()
        lazy_ingest_metadata(source, dense_repo)
        batch = source.catalog.table(RECORD_TABLE).batch
        shuffled = Database()
        ensure_schema(shuffled)
        order = np.random.default_rng(5).permutation(batch.num_rows)
        shuffled.catalog.table(RECORD_TABLE).append(batch.take(order))
        index = RecordMapIndex(shuffled)
        for uri, spans in self.expected(dense_repo).items():
            assert index(uri, "D") == spans

    def test_without_r_or_its_byte_columns_there_is_no_map(self, dense_repo):
        uri = dense_repo.uris()[0]
        assert RecordMapIndex(Database())(uri, "D") is None
        db = Database()
        ensure_schema(db)
        assert RecordMapIndex(db)(uri, "D") is None  # R is empty

    def test_rebuilt_when_a_metadata_load_replaces_r(self, dense_repo):
        source = Database()
        lazy_ingest_metadata(source, dense_repo)
        batch = source.catalog.table(RECORD_TABLE).batch
        first, second = dense_repo.uris()
        code = batch.column("uri").dictionary.lookup(first)
        is_first = batch.column("uri").values == code
        db = Database()
        ensure_schema(db)
        db.catalog.table(RECORD_TABLE).append(batch.filter(is_first))
        index = RecordMapIndex(db)
        expected = self.expected(dense_repo)
        assert index(first, "D") == expected[first]
        assert index(second, "D") is None
        db.catalog.table(RECORD_TABLE).append(batch.filter(~is_first))
        assert index(second, "D") == expected[second]
        assert index(first, "D") == expected[first]

    def test_one_index_shared_by_racing_threads(self, dense_repo):
        db = Database()
        lazy_ingest_metadata(db, dense_repo)
        index = RecordMapIndex(db)
        expected = self.expected(dense_repo)
        uris = dense_repo.uris()
        wrong = []

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                uri = uris[int(rng.integers(len(uris)))]
                if index(uri, "D") != expected[uri]:
                    wrong.append(uri)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
