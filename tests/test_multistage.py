"""Tests for multi-stage (batched) execution with early stopping."""

import math
import shutil
import threading
import time

import pytest

from repro.core import (
    ON_BUDGET_PARTIAL,
    PER_FILE,
    CacheGranularity,
    CachePolicy,
    CancellationToken,
    DerivedMetadataStore,
    IngestionCache,
    MountService,
    MultiStageExecutor,
    PartialMerger,
    QueryBudget,
    TwoStageExecutor,
    is_decomposable,
)
from repro.db import Database
from repro.db.errors import PlanError, QueryBudgetExceeded, QueryCancelledError
from repro.db.plan.logical import Aggregate
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository

from test_governor import _slow_plan


WHOLE_REPO_AVG = "SELECT AVG(sample_value) FROM D"
STATION_SUM = (
    "SELECT SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
    "WHERE F.station = 'ISK'"
)
GROUPED = (
    "SELECT F.channel, COUNT(*) FROM F JOIN D ON F.uri = D.uri "
    "GROUP BY F.channel"
)


class TestConvergence:
    def test_full_run_matches_two_stage(self, executor, ei_db):
        multi = MultiStageExecutor(executor, batch_files=2)
        outcome = multi.execute(WHOLE_REPO_AVG)
        assert outcome.converged
        assert outcome.files_processed == outcome.total_files
        expected = ei_db.execute(WHOLE_REPO_AVG).scalar()
        assert outcome.result.rows()[0][0] == pytest.approx(expected)

    def test_snapshots_progress(self, executor):
        multi = MultiStageExecutor(executor, batch_files=3)
        outcome = multi.execute(WHOLE_REPO_AVG)
        processed = [s.files_processed for s in outcome.snapshots]
        assert processed == sorted(processed)
        assert processed[-1] == outcome.total_files
        assert outcome.snapshots[-1].fraction == 1.0

    def test_running_estimate_available_per_batch(self, executor):
        multi = MultiStageExecutor(executor, batch_files=1)
        outcome = multi.execute(STATION_SUM)
        for snapshot in outcome.snapshots:
            assert snapshot.running_rows is not None
            assert len(snapshot.running_rows) == 1

    def test_grouped_aggregate_supported(self, executor, ei_db):
        multi = MultiStageExecutor(executor, batch_files=2)
        outcome = multi.execute(GROUPED)
        assert sorted(outcome.result.rows()) == sorted(
            ei_db.execute(GROUPED).rows()
        )


class TestEarlyStop:
    def test_max_batches_limits_files(self, executor):
        multi = MultiStageExecutor(executor, batch_files=2, max_batches=1)
        outcome = multi.execute(WHOLE_REPO_AVG)
        assert not outcome.converged
        assert outcome.approximate
        assert outcome.files_processed == 2

    def test_stop_condition_callback(self, executor):
        multi = MultiStageExecutor(
            executor,
            batch_files=1,
            stop_condition=lambda snap: snap.files_processed >= 3,
        )
        outcome = multi.execute(WHOLE_REPO_AVG)
        assert outcome.files_processed == 3
        assert not outcome.converged

    def test_time_budget_stops_eventually(self, executor):
        multi = MultiStageExecutor(
            executor, batch_files=1, time_budget_seconds=0.0
        )
        outcome = multi.execute(WHOLE_REPO_AVG)
        assert outcome.files_processed == 1  # stops after first batch

    def test_approximate_average_is_plausible(self, executor, ei_db):
        multi = MultiStageExecutor(executor, batch_files=2, max_batches=1)
        outcome = multi.execute(WHOLE_REPO_AVG)
        approx = outcome.result.rows()[0][0]
        assert not math.isnan(approx)


class TestValidation:
    def test_batch_files_positive(self, executor):
        with pytest.raises(ValueError):
            MultiStageExecutor(executor, batch_files=0)

    def test_non_aggregate_rejected(self, executor):
        multi = MultiStageExecutor(executor)
        with pytest.raises(PlanError):
            multi.execute("SELECT sample_value FROM D LIMIT 3")

    def test_metadata_only_passthrough(self, executor):
        multi = MultiStageExecutor(executor)
        outcome = multi.execute("SELECT COUNT(*) FROM F")
        assert outcome.total_files == 0
        assert outcome.converged


class TestPartialMerger:
    def aggregate_for(self, executor, sql):
        decomposition = executor.prepare(sql)
        return next(
            n for n in decomposition.qs.walk() if isinstance(n, Aggregate)
        )

    def test_is_decomposable(self, executor):
        agg = self.aggregate_for(executor, WHOLE_REPO_AVG)
        assert is_decomposable(agg)

    def test_avg_expands_to_sum_and_count(self, executor):
        agg = self.aggregate_for(executor, WHOLE_REPO_AVG)
        merger = PartialMerger(agg)
        funcs = [s.func for s in merger.partial_specs]
        assert sorted(funcs) == ["count", "sum"]

    def test_merge_and_finalize(self, executor):
        agg = self.aggregate_for(executor, WHOLE_REPO_AVG)
        merger = PartialMerger(agg)
        names = [s.out_name for s in merger.partial_specs]
        merger.merge([(10.0, 2)], names)
        merger.merge([(20.0, 3)], names)
        (row,) = merger.finalized_rows()
        assert row[0] == pytest.approx(30.0 / 5)

    def test_scalar_zero_files_yields_nan(self, executor):
        agg = self.aggregate_for(executor, WHOLE_REPO_AVG)
        merger = PartialMerger(agg)
        (row,) = merger.finalized_rows()
        assert math.isnan(row[0])


# -- one breakpoint: multi-stage runs the executor's stage 2 ---------------------

WINDOW_AVG = (
    "SELECT AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time > '2010-01-10T10:00:00.000' "
    "AND D.sample_time < '2010-01-10T12:00:00.000'"
)


def _tuple_cache():
    return IngestionCache(
        CachePolicy.LRU, CacheGranularity.TUPLE, capacity_bytes=64 << 20
    )


def _executor(db, repo, **kwargs):
    return TwoStageExecutor(db, RepositoryBinding(repo), **kwargs)


class TestOneBreakpoint:
    def test_prefetch_registers_exactly_the_uncached_files(
        self, ali_db, tiny_repo, monkeypatch
    ):
        """Rule (1) serves the warmed window from the cache, so only the
        files it mounts are extracted (inline, each registered by the plan's
        Mount branch as it runs)."""
        executor = _executor(ali_db, tiny_repo, cache=_tuple_cache())
        executor.execute(WINDOW_AVG + " AND F.station = 'ISK'")
        cached = executor.cache.cached_uris()
        assert cached
        fresh = _executor(ali_db, tiny_repo)
        uncached = fresh.execute(
            WINDOW_AVG + " AND F.station = 'ANK'"
        ).breakpoint.files_of_interest
        assert uncached

        registered = []
        extract = MountService._extract

        def recording(mounts, uri, *args, **kwargs):
            registered.append(uri)
            return extract(mounts, uri, *args, **kwargs)

        monkeypatch.setattr(MountService, "_extract", recording)
        before = executor.totals()["bytes_read"]
        outcome = MultiStageExecutor(executor, batch_files=1).execute(WINDOW_AVG)
        assert sorted(registered) == sorted(uncached)
        assert executor.totals()["bytes_read"] - before == (
            fresh.totals()["bytes_read"]
        )
        assert outcome.converged
        assert outcome.total_files == len(cached) + len(uncached)
        assert outcome.result.rows()[0][0] == pytest.approx(
            fresh.execute(WINDOW_AVG).rows[0][0]
        )

    def test_derived_answer_is_converged_with_no_batches(
        self, fresh_ali_db, tiny_repo
    ):
        derived = DerivedMetadataStore(fresh_ali_db)
        executor = _executor(fresh_ali_db, tiny_repo, derived=derived)
        exact = executor.execute(STATION_SUM).rows[0][0]  # fills the store
        outcome = MultiStageExecutor(executor, batch_files=1).execute(STATION_SUM)
        assert outcome.converged
        assert outcome.snapshots == []
        assert outcome.files_processed == outcome.total_files == 0
        assert outcome.result.rows()[0][0] == pytest.approx(exact)

    def test_total_files_counts_rule_one_branches(self, executor, tiny_repo):
        """A ``D.uri`` equality leaves one branch of the files of interest."""
        uri = tiny_repo.uris()[0]
        outcome = MultiStageExecutor(executor, batch_files=1).execute(
            f"SELECT COUNT(*) FROM D WHERE D.uri = '{uri}'"
        )
        assert outcome.total_files == outcome.files_processed == 1
        assert [s.files_processed for s in outcome.snapshots] == [1]

    @pytest.mark.parametrize("cache", ["discard", "lru-tuple"])
    def test_full_run_matches_two_stage_across_pools_and_caches(
        self, ali_db, tiny_repo, ei_db, cache
    ):
        executor = _executor(
            ali_db, tiny_repo,
            cache=_tuple_cache() if cache == "lru-tuple" else None,
        )
        multi = MultiStageExecutor(executor, batch_files=2)
        expected = ei_db.execute(WHOLE_REPO_AVG).scalar()
        for _ in range(2):  # the second run meets a warm cache
            outcome = multi.execute(WHOLE_REPO_AVG)
            assert outcome.converged
            assert outcome.files_processed == outcome.total_files
            assert outcome.result.rows()[0][0] == pytest.approx(expected)


class TestGovernedRuns:
    def test_partial_byte_budget_keeps_the_merged_prefix(self, executor):
        budget = QueryBudget(max_mount_bytes=1, on_budget=ON_BUDGET_PARTIAL)
        multi = MultiStageExecutor(executor, batch_files=2)
        outcome = multi.execute(WHOLE_REPO_AVG, budget=budget)
        assert not outcome.converged
        assert 0 < outcome.files_processed < outcome.total_files
        assert outcome.truncation is not None
        assert "byte" in outcome.truncation.reason
        assert outcome.snapshots[-1].files_processed == outcome.files_processed
        # The same prefix, stopped by the caller instead of the budget.
        prefix = MultiStageExecutor(
            executor,
            batch_files=1,
            stop_condition=lambda s: s.files_processed >= outcome.files_processed,
        ).execute(WHOLE_REPO_AVG)
        assert prefix.truncation is None
        assert outcome.result.rows() == prefix.result.rows()

    def test_raise_mode_budget_raises_within_a_second(self, ali_db, tiny_repo):
        executor = _executor(ali_db, tiny_repo)
        token = CancellationToken()
        started = time.perf_counter()
        with _slow_plan(tiny_repo, token).install():
            with pytest.raises(QueryBudgetExceeded):
                MultiStageExecutor(executor).execute(
                    WHOLE_REPO_AVG,
                    budget=QueryBudget(deadline_seconds=0.05),
                    cancellation=token,
                )
        assert time.perf_counter() - started < 1.0

    def test_cancel_from_another_thread_raises_within_a_second(
        self, ali_db, tiny_repo
    ):
        executor = _executor(ali_db, tiny_repo)
        token = CancellationToken()
        cancelled = []
        threading.Timer(0.05, lambda: cancelled.append(executor.cancel())).start()
        started = time.perf_counter()
        with _slow_plan(tiny_repo, token).install():
            with pytest.raises(QueryCancelledError):
                MultiStageExecutor(executor).execute(
                    WHOLE_REPO_AVG, cancellation=token
                )
        assert time.perf_counter() - started < 1.0
        assert cancelled == [True]

    def test_skipped_corrupt_file_is_reported(self, tmp_path, tiny_repo):
        shutil.copytree(tiny_repo.root, tmp_path / "repo")
        repo = FileRepository(tmp_path / "repo")
        db = Database()
        lazy_ingest_metadata(db, repo)
        victim = repo.uris()[2]
        path = repo.path_of(victim)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF  # inside the first payload: the headers stay valid
        path.write_bytes(bytes(raw))

        multi = MultiStageExecutor(
            _executor(db, repo, on_mount_error="skip"), batch_files=2
        )
        outcome = multi.execute(WHOLE_REPO_AVG)
        assert outcome.mount_failures.uris() == [victim]
        assert outcome.converged
        per_file = _executor(db, repo, on_mount_error="skip", strategy=PER_FILE)
        two_stage = per_file.execute(WHOLE_REPO_AVG)
        assert two_stage.mount_failures.uris() == [victim]
        assert outcome.result.rows() == two_stage.rows
