"""Tests for informativeness estimation and destiny policies."""

import pytest

from repro.core import (
    AbortAboveCost,
    CallbackPolicy,
    CostModel,
    DestinyAction,
    DestinyDecision,
    LimitFilesAboveCost,
    ProceedAlways,
    estimate_informativeness,
)
from repro.db import (
    Database,
    FileStatistics,
    StatisticsCatalog,
    collect_statistics,
)
from repro.db.buffer import DiskModel
from repro.ingest import FILE_TABLE, ensure_schema


@pytest.fixture(scope="module")
def file_stats(ali_db):
    """The per-file statistics snapshot the executor hands the estimator."""
    return collect_statistics(ali_db.catalog, FILE_TABLE)


class TestCostModel:
    def test_mount_seconds_scales_with_bytes(self):
        model = CostModel()
        assert model.mount_seconds(10**8, 10**6) > model.mount_seconds(10**6, 10**6)

    def test_stage2_at_least_mount(self):
        model = CostModel()
        assert model.stage2_seconds(10**6, 10**6) >= model.mount_seconds(10**6, 10**6)

    def test_custom_disk(self):
        slow = CostModel(disk=DiskModel(seek_seconds=1.0))
        fast = CostModel(disk=DiskModel(seek_seconds=0.0001))
        assert slow.mount_seconds(1000, 10) > fast.mount_seconds(1000, 10)


class TestEstimate:
    def test_uses_file_metadata(self, file_stats, tiny_repo):
        uris = tiny_repo.uris()[:2]
        report = estimate_informativeness(file_stats, uris, cached_uris=set())
        assert report.files == 2
        assert report.est_tuples > 0
        assert report.est_bytes > 0
        assert report.selectivity == pytest.approx(2 / len(tiny_repo))

    def test_cached_files_reduce_bytes(self, file_stats, tiny_repo):
        uris = tiny_repo.uris()[:2]
        cold = estimate_informativeness(file_stats, uris, set())
        warm = estimate_informativeness(file_stats, uris, set(uris))
        assert warm.est_bytes == 0
        assert warm.cached_files == 2
        assert warm.est_stage2_seconds < cold.est_stage2_seconds

    def test_empty_files_scores_one(self, file_stats):
        report = estimate_informativeness(file_stats, [], set())
        assert report.score == 1.0
        assert report.est_tuples == 0

    def test_whole_repository_scores_low(self, file_stats, tiny_repo):
        narrow = estimate_informativeness(
            file_stats, tiny_repo.uris()[:1], set()
        )
        broad = estimate_informativeness(file_stats, tiny_repo.uris(), set())
        assert broad.score < narrow.score
        assert broad.selectivity == 1.0


class TestPolicies:
    def report(self, file_stats, tiny_repo, n):
        return estimate_informativeness(file_stats, tiny_repo.uris()[:n], set())

    def test_proceed_always(self, file_stats, tiny_repo):
        decision = ProceedAlways().decide(self.report(file_stats, tiny_repo, 4))
        assert decision.action is DestinyAction.PROCEED

    def test_abort_on_files(self, file_stats, tiny_repo):
        policy = AbortAboveCost(max_files=1)
        decision = policy.decide(self.report(file_stats, tiny_repo, 3))
        assert decision.action is DestinyAction.ABORT
        assert "files of interest" in decision.reason

    def test_abort_on_seconds(self, file_stats, tiny_repo):
        policy = AbortAboveCost(max_seconds=0.0)
        decision = policy.decide(self.report(file_stats, tiny_repo, 1))
        assert decision.action is DestinyAction.ABORT

    def test_abort_on_tuples(self, file_stats, tiny_repo):
        policy = AbortAboveCost(max_tuples=1)
        decision = policy.decide(self.report(file_stats, tiny_repo, 1))
        assert decision.action is DestinyAction.ABORT

    def test_abort_passes_small(self, file_stats, tiny_repo):
        policy = AbortAboveCost(max_files=10, max_tuples=10**12)
        decision = policy.decide(self.report(file_stats, tiny_repo, 1))
        assert decision.action is DestinyAction.PROCEED

    def test_limit_policy(self, file_stats, tiny_repo):
        policy = LimitFilesAboveCost(max_files=1, keep_files=1)
        decision = policy.decide(self.report(file_stats, tiny_repo, 3))
        assert decision.action is DestinyAction.LIMIT
        assert decision.max_files == 1

    def test_callback_policy(self, file_stats, tiny_repo):
        seen = []

        def decide(report):
            seen.append(report.files)
            return DestinyDecision(DestinyAction.PROCEED, reason="explorer said go")

        decision = CallbackPolicy(decide).decide(self.report(file_stats, tiny_repo, 2))
        assert seen == [2]
        assert decision.reason == "explorer said go"


class TestResultRowEstimate:
    def test_window_estimate_close_to_actual(self, ali_db, tiny_repo, executor, ei_db):
        sql = (
            "SELECT D.sample_time, D.sample_value "
            "FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK' AND F.channel = 'BHE' "
            "AND D.sample_time > '2010-01-10T00:00:00' "
            "AND D.sample_time < '2010-01-10T06:00:00'"
        )
        outcome = executor.execute(sql)
        estimate = outcome.breakpoint.estimate
        assert estimate.est_result_rows is not None
        actual = ei_db.execute(sql).num_rows
        # Uniform-sampling assumption holds exactly for synthetic files.
        assert abs(estimate.est_result_rows - actual) <= max(2, actual * 0.05)
        assert "rows in the time window" in estimate.summary()

    def test_no_interval_no_estimate(self, executor):
        outcome = executor.execute(
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK'"
        )
        assert outcome.breakpoint.estimate.est_result_rows is None

    def test_window_rows_direct(self, file_stats, tiny_repo):
        from repro.db import parse_timestamp

        uris = [u for u in tiny_repo.uris() if "ISK" in u][:1]
        lo = parse_timestamp("2010-01-10T00:00:00")
        hi = parse_timestamp("2010-01-10T12:00:00")
        report = estimate_informativeness(
            file_stats, uris, set(), interval=(lo, hi)
        )
        # Half the day-file's samples fall into the half-day window.
        day_total = 4320
        assert abs(report.est_result_rows - day_total / 2) < day_total * 0.05


def _row_by_row_statistics(catalog, file_table):
    """How ``collect_statistics`` built the catalog before it read ``F``'s
    columns as arrays: a ``FileStatistics`` per row, from Python lists."""
    stats = StatisticsCatalog()
    for table in catalog.tables():
        stats.table_rows[table.schema.name.lower()] = table.batch.num_rows
    if not catalog.has_table(file_table):
        return stats
    batch = catalog.table(file_table).batch
    columns = [
        batch.column(name).to_pylist()
        for name in ("uri", "start_time", "end_time", "nrecords", "nsamples",
                     "size_bytes")
    ]
    for uri, *numbers in zip(*columns):
        stats.files[uri] = FileStatistics(uri, *map(int, numbers))
    return stats


class TestColumnarStatistics:
    def test_equals_the_row_by_row_catalog(self, ali_db, tiny_repo):
        stats = collect_statistics(ali_db.catalog, FILE_TABLE)
        expected = _row_by_row_statistics(ali_db.catalog, FILE_TABLE)
        assert stats == expected
        assert dict(stats.files.items()) == expected.files
        assert list(stats.files) == tiny_repo.uris() == list(expected.files)
        for uri in tiny_repo.uris():
            assert uri in stats.files
            assert stats.files.get(uri) == stats.files[uri]
            assert stats.files[uri] == expected.files[uri]
            assert stats.file_span(uri) == expected.file_span(uri)
        assert "elsewhere.xseed" not in stats.files
        assert stats.files.get("elsewhere.xseed") is None
        assert stats.file_span("elsewhere.xseed") is None
        with pytest.raises(KeyError):
            stats.files["elsewhere.xseed"]

    @pytest.mark.parametrize("schema", [False, True])
    def test_empty_catalog(self, schema):
        db = Database()
        if schema:
            ensure_schema(db)
        stats = collect_statistics(db.catalog, FILE_TABLE)
        assert stats == _row_by_row_statistics(db.catalog, FILE_TABLE)
        assert len(stats.files) == 0 and dict(stats.files.items()) == {}
