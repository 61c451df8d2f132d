"""Tests for derived metadata collection and the breakpoint fast path."""

import numpy as np
import pytest

from repro.core import (
    DerivedMetadataStore,
    DERIVED_TABLE,
    TwoStageExecutor,
)
from repro.core.derived import _count_gaps
from repro.ingest import RepositoryBinding


@pytest.fixture()
def derived_executor(fresh_ali_db, tiny_repo):
    derived = DerivedMetadataStore(fresh_ali_db)
    executor = TwoStageExecutor(
        fresh_ali_db,
        RepositoryBinding(tiny_repo),
        derived=derived,
    )
    return executor, derived


SUMMARY_SQL = (
    "SELECT AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
    "WHERE F.station = 'ISK' AND F.channel = 'BHE'"
)


class TestCollection:
    def test_mount_populates_derived_table(self, derived_executor):
        executor, derived = derived_executor
        executor.execute(SUMMARY_SQL)
        table = executor.db.catalog.table(DERIVED_TABLE)
        assert table.num_rows > 0
        uris = set(table.batch.column("uri").to_pylist())
        assert all("ISK" in u and "BHE" in u for u in uris)

    def test_rows_match_actual_statistics(self, derived_executor, tiny_repo):
        from repro.mseed import read_records

        executor, derived = derived_executor
        executor.execute(SUMMARY_SQL)
        table = executor.db.catalog.table(DERIVED_TABLE)
        row = table.batch.rows()[0]
        uri, rid = row[0], row[1]
        records = read_records(tiny_repo.path_of(uri))
        samples = records[rid].samples.astype(np.float64)
        assert row[2] == samples.min()
        assert row[3] == samples.max()
        assert row[4] == pytest.approx(samples.sum())
        assert row[5] == len(samples)

    def test_idempotent_per_file(self, derived_executor):
        executor, derived = derived_executor
        executor.execute(SUMMARY_SQL)
        rows_before = executor.db.catalog.table(DERIVED_TABLE).num_rows
        executor.execute(SUMMARY_SQL)
        assert executor.db.catalog.table(DERIVED_TABLE).num_rows == rows_before



class TestFastPath:
    def test_second_summary_answered_without_mounting(self, derived_executor):
        executor, derived = derived_executor
        first = executor.execute(SUMMARY_SQL)
        assert not first.breakpoint.answered_from_derived
        second = executor.execute(SUMMARY_SQL)
        assert second.breakpoint.answered_from_derived
        assert second.result.trace.counters["files_mounted"] == 0
        assert second.rows[0][0] == pytest.approx(first.rows[0][0])

    def test_all_decomposable_funcs(self, derived_executor, ei_db):
        sql = (
            "SELECT COUNT(*), SUM(D.sample_value), AVG(D.sample_value), "
            "MIN(D.sample_value), MAX(D.sample_value) "
            "FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ANK' AND F.channel = 'BHZ'"
        )
        executor, derived = derived_executor
        executor.execute(sql)  # warm derived metadata
        outcome = executor.execute(sql)
        assert outcome.breakpoint.answered_from_derived
        expected = ei_db.execute(sql).rows()[0]
        got = outcome.rows[0]
        assert got[0] == expected[0]
        for g, e in zip(got[1:], expected[1:]):
            assert g == pytest.approx(e)

    def test_record_scoped_fast_path(self, derived_executor, ei_db):
        """A record-level join narrows the derived scope per (uri, rid)."""
        sql = (
            "SELECT SUM(D.sample_value) FROM F JOIN R ON F.uri = R.uri "
            "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id "
            "WHERE F.station = 'ISK' AND F.channel = 'BHE' "
            "AND R.record_id = 2"
        )
        executor, derived = derived_executor
        executor.execute(sql)
        outcome = executor.execute(sql)
        assert outcome.breakpoint.answered_from_derived
        assert outcome.rows[0][0] == pytest.approx(
            ei_db.execute(sql).rows()[0][0]
        )

    def test_predicate_on_actual_data_disables_fast_path(self, derived_executor):
        sql = (
            "SELECT AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK' AND F.channel = 'BHE' "
            "AND D.sample_value > 0.0"
        )
        executor, derived = derived_executor
        executor.execute(sql)
        outcome = executor.execute(sql)
        assert not outcome.breakpoint.answered_from_derived
        # Both ISK/BHE day-files are of interest and must actually mount.
        assert outcome.result.trace.counters["files_mounted"] == 2

    def test_grouped_aggregate_disables_fast_path(self, derived_executor):
        sql = (
            "SELECT F.channel, AVG(D.sample_value) FROM F "
            "JOIN D ON F.uri = D.uri WHERE F.station = 'ISK' "
            "GROUP BY F.channel"
        )
        executor, derived = derived_executor
        executor.execute(sql)
        outcome = executor.execute(sql)
        assert not outcome.breakpoint.answered_from_derived

    def test_uncovered_files_disable_fast_path(self, derived_executor):
        executor, derived = derived_executor
        executor.execute(SUMMARY_SQL)  # covers only ISK/BHE
        other = (
            "SELECT AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ANK'"
        )
        outcome = executor.execute(other)
        assert not outcome.breakpoint.answered_from_derived


class TestGapCounting:
    def test_no_gaps_in_regular_series(self):
        times = np.arange(0, 100, 10, dtype=np.int64)
        assert _count_gaps(times) == 0

    def test_single_gap(self):
        times = np.array([0, 10, 20, 100, 110, 120], dtype=np.int64)
        assert _count_gaps(times) == 1

    def test_short_series(self):
        assert _count_gaps(np.array([0, 10], dtype=np.int64)) == 0
