"""Predictive prefetch: window prediction and speculative cache warming.

Covers the two pieces in :mod:`repro.core.prefetch` plus their integration
with the executor (a synchronous prefetch round turning the next query into
a cache scan without changing its answer).
"""

from __future__ import annotations

import pytest

from repro.core import (
    ON_BUDGET_PARTIAL,
    CacheGranularity,
    CachePolicy,
    CancellationToken,
    IngestionCache,
    QueryBudget,
    SessionPrefetcher,
    TwoStageExecutor,
    WorkloadPredictor,
)
from repro.core.prefetch import PredictedWindow
from repro.db import Database
from repro.db.errors import QueryCancelledError
from repro.db.types import format_timestamp, parse_timestamp
from repro.ingest import RepositoryBinding, lazy_ingest_metadata

_MINUTE_US = 60 * 1_000_000


class TestWorkloadPredictor:
    BASE = parse_timestamp("2010-01-10T12:00:00.000")
    WIDTH = 30 * _MINUTE_US

    def _window(self, i, width=None):
        width = width or self.WIDTH
        lo = self.BASE + i * (self.WIDTH // 2)
        return (lo, lo + width)

    def test_cold_trail_predicts_nothing(self):
        predictor = WorkloadPredictor()
        assert predictor.predict() is None
        assert predictor.observe_and_predict(self._window(0)) is None

    def test_slide_extrapolates_next_step(self):
        predictor = WorkloadPredictor(widen_fraction=0.0)
        predictor.observe(self._window(0))
        predicted = predictor.observe_and_predict(self._window(1))
        assert predicted is not None
        assert predicted.kind == "slide"
        assert predicted.interval == self._window(2)

    def test_widening_covers_sloppy_slides(self):
        predictor = WorkloadPredictor(widen_fraction=0.25)
        predictor.observe(self._window(0))
        predicted = predictor.observe_and_predict(self._window(1))
        margin = self.WIDTH // 4
        expected = self._window(2)
        assert predicted.interval == (
            expected[0] - margin, expected[1] + margin
        )

    def test_move_on_jump_is_unpredictable(self):
        predictor = WorkloadPredictor()
        predictor.observe(self._window(0))
        # Same width but a jump far beyond 2x the window: MOVE_ON.
        assert predictor.observe_and_predict(self._window(40)) is None

    def test_zoom_in_contracts_around_center(self):
        predictor = WorkloadPredictor(widen_fraction=0.0)
        wide = (self.BASE, self.BASE + 4 * self.WIDTH)
        center = (wide[0] + wide[1]) // 2
        half = self.WIDTH
        predictor.observe(wide)
        predicted = predictor.observe_and_predict(
            (center - half, center + half)
        )
        assert predicted is not None
        assert predicted.kind == "zoom-in"
        lo, hi = predicted.interval
        assert wide[0] < lo < hi < wide[1]
        assert hi - lo < 2 * half

    def test_zoom_out_expands_around_center(self):
        predictor = WorkloadPredictor(widen_fraction=0.0)
        half = self.WIDTH
        center = self.BASE + 4 * self.WIDTH
        predictor.observe((center - half, center + half))
        predicted = predictor.observe_and_predict(
            (center - 2 * half, center + 2 * half)
        )
        assert predicted is not None
        assert predicted.kind == "zoom-out"
        lo, hi = predicted.interval
        assert lo < center - 2 * half
        assert hi > center + 2 * half

    def test_none_and_empty_windows_ignored(self):
        predictor = WorkloadPredictor()
        predictor.observe(self._window(0))
        predictor.observe(None)
        predictor.observe((self.BASE, self.BASE - 1))  # empty
        predicted = predictor.observe_and_predict(self._window(1))
        assert predicted is not None and predicted.kind == "slide"


class TestSessionPrefetcher:
    def _sql(self, lo_us, hi_us):
        return (
            "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a "
            "FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK' "
            f"AND D.sample_time >= '{format_timestamp(lo_us)}' "
            f"AND D.sample_time < '{format_timestamp(hi_us)}'"
        )

    def _sliding(self, steps):
        base = parse_timestamp("2010-01-10T08:00:00.000")
        width = 60 * _MINUTE_US
        return [
            (base + i * (width // 2), base + i * (width // 2) + width)
            for i in range(steps)
        ]

    def _executor(self, tiny_repo, prefetch_cache=True):
        db = Database()
        lazy_ingest_metadata(db, tiny_repo)
        cache = IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)
        return TwoStageExecutor(
            db,
            RepositoryBinding(tiny_repo),
            cache=cache,
            selective_mounts=True,
        )

    def test_synchronous_round_warms_next_window(self, tiny_repo):
        executor = self._executor(tiny_repo)
        prefetcher = SessionPrefetcher(
            executor.mounts, executor.statistics, synchronous=True
        )
        windows = self._sliding(3)
        plain = self._executor(tiny_repo)
        expected = [
            plain.execute(self._sql(lo, hi)).rows for lo, hi in windows
        ]

        rows = []
        for lo, hi in windows:
            rows.append(executor.execute(self._sql(lo, hi)).rows)
            prefetcher.observe((lo, hi))
        assert rows == expected

        stats = prefetcher.stats
        assert stats.observed == 3
        assert stats.predictions >= 1
        assert stats.files_prefetched > 0
        # The prefetched coverage turned the last query's mounts into scans.
        assert executor.mounts.stats.prefetched_mounts > 0
        assert executor.mounts.stats.cache_scans > 0

    def test_wrong_prediction_never_changes_answers(self, tiny_repo):
        """A prediction past the archive's end prefetches nothing and the
        following unrelated query still answers identically."""
        executor = self._executor(tiny_repo)
        prefetcher = SessionPrefetcher(
            executor.mounts, executor.statistics, synchronous=True
        )
        base = parse_timestamp("2010-01-11T20:00:00.000")
        width = 60 * _MINUTE_US
        # Slide toward (and past) the end of the last day.
        for i in range(4):
            lo = base + i * width
            prefetcher.observe((lo, lo + width))
        check = self._sliding(1)[0]
        plain = self._executor(tiny_repo)
        assert (
            executor.execute(self._sql(*check)).rows
            == plain.execute(self._sql(*check)).rows
        )

    def test_discard_policy_disables_prefetch(self, tiny_repo):
        db = Database()
        lazy_ingest_metadata(db, tiny_repo)
        executor = TwoStageExecutor(db, RepositoryBinding(tiny_repo))
        prefetcher = SessionPrefetcher(
            executor.mounts, executor.statistics, synchronous=True
        )
        for lo, hi in self._sliding(3):
            prefetcher.observe((lo, hi))
        assert prefetcher.stats.files_prefetched == 0
        assert prefetcher.stats.skipped_blocked > 0

    def test_async_worker_drains_and_closes(self, tiny_repo):
        executor = self._executor(tiny_repo)
        with SessionPrefetcher(
            executor.mounts, executor.statistics
        ) as prefetcher:
            for lo, hi in self._sliding(3):
                prefetcher.observe((lo, hi))
            assert prefetcher.flush(timeout=10.0)
            assert prefetcher.stats.rounds >= 1
        # close() is idempotent and a post-close observe is a no-op.
        prefetcher.close()
        prefetcher.observe((0, 1))

    def test_byte_budget_bounds_a_round(self, tiny_repo):
        executor = self._executor(tiny_repo)
        prefetcher = SessionPrefetcher(
            executor.mounts,
            executor.statistics,
            synchronous=True,
            max_bytes_per_round=1,
        )
        for lo, hi in self._sliding(3):
            prefetcher.observe((lo, hi))
        stats = prefetcher.stats
        # At most one file fits under a 1-byte budget; the rest are counted.
        assert stats.files_prefetched <= stats.rounds
        assert stats.skipped_budget > 0


class TestPrefetchIsNobodysBill:
    """A prefetch round extracts under a context of its own: what it reads
    lands on no query's ledger, and no query's token reaches it."""

    @pytest.fixture()
    def overlapping(self, tiny_repo):
        """(executor, prefetcher, sql, foreground file): the query mounts
        one whole file, and while it does — from a mount callback, so the
        overlap is exact — the prefetcher runs one round that extracts
        exactly one file's window (the round's byte bound is 1)."""
        db = Database()
        lazy_ingest_metadata(db, tiny_repo)
        executor = TwoStageExecutor(
            db,
            RepositoryBinding(tiny_repo),
            cache=IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE),
        )
        prefetcher = SessionPrefetcher(
            executor.mounts,
            executor.statistics,
            synchronous=True,
            max_bytes_per_round=1,
        )
        uri = tiny_repo.uris()[0]
        lo, hi = executor.statistics().file_span(uri)
        window = PredictedWindow(interval=(lo, (lo + hi) // 2), kind="slide")
        self.during_mount = lambda: None

        def on_mount(_uri, _batch):
            self.during_mount()
            prefetcher._run_round(window)

        executor.mounts.add_mount_callback(on_mount)
        sql = (
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            f"WHERE F.uri = '{uri}'"
        )
        return executor, prefetcher, sql, uri

    def test_overlapping_round_is_not_charged_to_the_query(
        self, overlapping, tiny_repo
    ):
        executor, prefetcher, sql, uri = overlapping
        # A byte budget of exactly the query's own file: one speculative
        # byte on its ledger would trip it.
        budget = QueryBudget(
            max_mount_bytes=tiny_repo.size_of(uri), on_budget=ON_BUDGET_PARTIAL
        )
        outcome = executor.execute(sql, budget=budget)
        assert prefetcher.stats.files_prefetched == 1
        assert prefetcher.stats.bytes_prefetched > 0
        assert outcome.truncation is None
        assert outcome.rows[0][0] > 0

    def test_cancelled_query_does_not_take_the_round_with_it(self, overlapping):
        executor, prefetcher, sql, _uri = overlapping
        token = CancellationToken()
        self.during_mount = lambda: token.cancel("ctrl-c")
        with pytest.raises(QueryCancelledError):
            executor.execute(sql, cancellation=token)
        assert prefetcher.stats.files_prefetched == 1
        assert prefetcher.stats.errors == 0

    def test_worker_survives_a_round_that_raises(self, tiny_repo):
        class FailsOnce:
            calls = 0

            def prefetch_into_cache(self, *_args):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("the first round breaks")
                return ("stored", 10)

        class AlwaysPredicts:
            def observe_and_predict(self, interval):
                return PredictedWindow(interval=interval, kind="slide")

        db = Database()
        lazy_ingest_metadata(db, tiny_repo)
        statistics = TwoStageExecutor(db, RepositoryBinding(tiny_repo)).statistics
        span = statistics().file_span(tiny_repo.uris()[0])
        with SessionPrefetcher(
            FailsOnce(), statistics, predictor=AlwaysPredicts()
        ) as prefetcher:
            prefetcher.observe(span)
            assert prefetcher.flush(timeout=10.0)
            assert prefetcher.stats.errors == 1
            prefetcher.observe(span)  # the worker is still there to run it
            assert prefetcher.flush(timeout=10.0)
            assert prefetcher.stats.rounds == 2
            assert prefetcher.stats.files_prefetched > 0
