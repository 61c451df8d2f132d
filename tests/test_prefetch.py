"""Predictive prefetch: window prediction and speculative hint planning.

Covers :class:`~repro.core.prefetch.WorkloadPredictor`, and the one
speculative path through a scheduler's deferred plans, in both of its
shapes: a prefetching :class:`~repro.explore.session.ExplorationSession`
and a prefetching :class:`~repro.serve.service.QueryService`. Tests wait on
the scheduler's hint counters, never on fixed sleeps.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import (
    ON_BUDGET_PARTIAL,
    CacheGranularity,
    CachePolicy,
    IngestionCache,
    QueryBudget,
    TwoStageExecutor,
    WorkloadPredictor,
)
from repro.core import prefetch
from repro.core.prefetch import PredictedWindow
from repro.core.scheduler import WORKER_THREAD_PREFIX
from repro.db import Database
from repro.db.errors import QueryCancelledError
from repro.db.types import format_timestamp, parse_timestamp
from repro.explore import ExplorationSession
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.serve import QueryService
from repro.testing.faults import SHORT_READ, FaultPlan, FaultSpec

_MINUTE_US = 60 * 1_000_000


@pytest.fixture()
def unwidened(monkeypatch):
    monkeypatch.setattr(prefetch, "WIDEN_FRACTION", 0.0)


@pytest.fixture()
def one_file_plans(monkeypatch):
    monkeypatch.setattr(prefetch, "MAX_BYTES_PER_ROUND", 1)


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
        predictor.observe(self._window(0))
        assert predictor.predict() is None

    def test_slide_extrapolates_next_step(self, unwidened):
        predictor = WorkloadPredictor()
        predictor.observe(self._window(0))
        predictor.observe(self._window(1))
        predicted = predictor.predict()
        assert predicted is not None
        assert predicted.kind == "slide"
        assert predicted.interval == self._window(2)

    def test_widening_covers_sloppy_slides(self):
        assert prefetch.WIDEN_FRACTION == 0.25
        predictor = WorkloadPredictor()
        predictor.observe(self._window(0))
        predictor.observe(self._window(1))
        predicted = predictor.predict()
        margin = self.WIDTH // 4
        expected = self._window(2)
        assert predicted.interval == (
            expected[0] - margin, expected[1] + margin
        )

    def test_move_on_jump_is_unpredictable(self):
        predictor = WorkloadPredictor()
        predictor.observe(self._window(0))
        # Same width but a jump far beyond 2x the window: MOVE_ON.
        predictor.observe(self._window(40))
        assert predictor.predict() is None

    def test_zoom_in_contracts_around_center(self, unwidened):
        predictor = WorkloadPredictor()
        wide = (self.BASE, self.BASE + 4 * self.WIDTH)
        center = (wide[0] + wide[1]) // 2
        half = self.WIDTH
        predictor.observe(wide)
        predictor.observe((center - half, center + half))
        predicted = predictor.predict()
        assert predicted is not None
        assert predicted.kind == "zoom-in"
        lo, hi = predicted.interval
        assert wide[0] < lo < hi < wide[1]
        assert hi - lo < 2 * half

    def test_zoom_out_expands_around_center(self, unwidened):
        predictor = WorkloadPredictor()
        half = self.WIDTH
        center = self.BASE + 4 * self.WIDTH
        predictor.observe((center - half, center + half))
        predictor.observe((center - 2 * half, center + 2 * half))
        predicted = predictor.predict()
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
        predictor.observe(self._window(1))
        predicted = predictor.predict()
        assert predicted is not None and predicted.kind == "slide"




# -- the speculative path -------------------------------------------------------


def _sql(lo_us, hi_us, station="ISK"):
    return (
        "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a "
        "FROM F JOIN D ON F.uri = D.uri "
        f"WHERE F.station = '{station}' "
        f"AND D.sample_time >= '{format_timestamp(lo_us)}' "
        f"AND D.sample_time < '{format_timestamp(hi_us)}'"
    )


def _sliding(steps, start="2010-01-10T08:00:00.000"):
    base = parse_timestamp(start)
    width = 60 * _MINUTE_US
    return [
        (base + i * (width // 2), base + i * (width // 2) + width)
        for i in range(steps)
    ]


# One narrow window: the query that defers a plan, not what it plans.
_NARROW = _sql(*_sliding(1)[0])


def _tuple_cache():
    return IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)


def _executor(repo, cache=None, **kwargs):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(
        db,
        RepositoryBinding(repo),
        cache=_tuple_cache() if cache is None else cache,
        **kwargs,
    )


def _wait(condition, timeout=10.0):
    """Poll ``condition`` until it holds (True) or ``timeout`` passes."""
    pacer = threading.Event()
    for _ in range(int(timeout / 0.01)):
        if condition():
            return True
        pacer.wait(0.01)
    return condition()


def _quiet(scheduler):
    """Every hint registered so far was extracted and stored."""
    stats = scheduler.stats
    return stats.hint_extractions + stats.tasks_failed >= stats.hints_registered


def _mount_workers():
    return [
        t for t in threading.enumerate()
        if t.name.startswith(WORKER_THREAD_PREFIX)
    ]


class _Predictor(WorkloadPredictor):
    """Predicts ``window`` whatever was observed: after ``gate`` opens, when
    there is one, and raising instead on its first ``failures`` calls."""

    def __init__(self, window, gate=None, failures=0):
        super().__init__()
        self.window, self.gate, self.failures = window, gate, failures
        self.threads = []
        self.entered = threading.Event()
        self.raised = threading.Event()

    def predict(self):
        self.threads.append(threading.current_thread())
        self.entered.set()
        if self.gate is not None:
            self.gate.wait(5.0)
        if len(self.threads) <= self.failures:
            self.raised.set()
            raise RuntimeError("the prediction breaks")
        return PredictedWindow(interval=self.window, kind="slide")


def _hull(executor):
    spans = [f.span for f in executor.statistics().files.values()]
    return min(lo for lo, _ in spans), max(hi for _, hi in spans)


class _Prefetching:
    """A prefetching session, or a prefetching service's one tenant: the
    two shapes of the one speculative path, driven alike."""

    def __init__(self, shape, repo):
        self.shape = shape
        if shape == "session":
            self.session = ExplorationSession(_executor(repo), prefetch=True)
            self.executor = self.session.engine
            self.scheduler = self.session.scheduler
            self.owner = self.session
            self.breaker = self.executor.breaker
        else:
            self.service = QueryService(
                repo, cache=_tuple_cache(), mount_workers=1, prefetch=True
            ).start()
            self.executor = self.service._executor
            self.scheduler = self.service.scheduler
            self.owner = self.service.register_tenant("default")
            self.breaker = self.owner.breaker

    def run(self, sql):
        if self.shape == "session":
            return self.session.run(sql).rows()
        return self.service.execute(sql).rows

    def predict_with(self, predictor):
        self.owner.predictor = predictor
        return predictor

    def close(self):
        if self.shape == "session":
            self.session.close()
        else:
            self.service.close()


@pytest.fixture(params=["session", "service"])
def prefetching(request, tiny_repo):
    shape = _Prefetching(request.param, tiny_repo)
    yield shape
    shape.close()


class TestPrefetchingSession:
    def test_a_plan_warms_the_next_window(self, tiny_repo):
        """The second window's plan is drained before the third query
        runs, which then scans the cache for what the hints stored."""
        windows = _sliding(3)
        plain = _executor(tiny_repo)
        expected = [plain.execute(_sql(lo, hi)).rows for lo, hi in windows]
        session = ExplorationSession(_executor(tiny_repo), prefetch=True)
        try:
            rows = [session.run(_sql(*w)).rows() for w in windows[:2]]
            stats = session.scheduler.stats
            assert _wait(lambda: stats.hints_registered > 0)
            assert _wait(lambda: _quiet(session.scheduler))
            rows.append(session.run(_sql(*windows[2])).rows())
        finally:
            session.close()
        assert rows == expected
        assert stats.hint_extractions > 0
        assert session.history[-1].cache_scans > 0

    def test_wrong_prediction_never_changes_answers(self, tiny_repo):
        """Windows sliding past the archive's end predict one it does not
        hold, and every answer is still what a plain executor answers."""
        walk = _sliding(4, start="2010-01-11T20:00:00.000") + _sliding(1)
        plain = _executor(tiny_repo)
        session = ExplorationSession(_executor(tiny_repo), prefetch=True)
        try:
            for window in walk:
                assert (
                    session.run(_sql(*window)).rows()
                    == plain.execute(_sql(*window)).rows
                )
        finally:
            session.close()

    def test_a_discarding_cache_starts_no_thread(self, tiny_repo):
        """DISCARD keeps nothing a hint would extract: the session builds
        no scheduler and defers nothing."""
        before = threading.active_count()
        session = ExplorationSession(
            _executor(tiny_repo, cache=IngestionCache()), prefetch=True
        )
        for window in _sliding(3):
            session.run(_sql(*window))
        assert threading.active_count() == before
        assert session.scheduler is None
        session.close()

    def test_no_prefetch_and_a_standalone_query_start_no_thread(
        self, tiny_repo
    ):
        before = threading.active_count()
        executor = _executor(tiny_repo, mount_workers=2)
        executor.execute(_NARROW)
        assert threading.active_count() == before
        session = ExplorationSession(executor)
        for window in _sliding(3):
            session.run(_sql(*window))
        assert threading.active_count() == before
        assert session.scheduler is None

    def test_close_joins_the_one_worker(self, tiny_repo):
        """The worker starts at the first deferred plan and close() joins
        it; close() is idempotent and a later query prefetches nothing."""
        before = threading.active_count()
        session = ExplorationSession(_executor(tiny_repo), prefetch=True)
        assert threading.active_count() == before
        scheduler = session.scheduler
        for window in _sliding(3):
            session.run(_sql(*window))
        assert _wait(lambda: scheduler.stats.hints_registered > 0)
        assert threading.active_count() == before + 1
        assert len(_mount_workers()) == 1
        session.close()
        assert threading.active_count() == before
        session.close()
        session.run(_NARROW)
        assert session.scheduler is None
        assert threading.active_count() == before


class TestPrefetchIsNobodysBill:
    """A hint extracts under no query's context: what it reads lands on no
    query's ledger, and no query's token reaches it."""

    @pytest.fixture()
    def overlapping(self, tiny_repo, one_file_plans):
        """(session, sql, foreground file): a first query defers a plan
        that waits at its prediction; the second query mounts one whole
        file, and while it does — from a mount callback, so the overlap is
        exact — the plan goes on and its one hint (the plan's byte bound is
        1) is extracted and stored."""
        db = Database()
        lazy_ingest_metadata(db, tiny_repo)
        uri = tiny_repo.uris()[0]
        executor = TwoStageExecutor(
            db,
            RepositoryBinding(tiny_repo),
            cache=_tuple_cache(),
            # A byte budget of exactly the query's own file, partial: one
            # speculative byte on its ledger would truncate the answer.
            budget=QueryBudget(
                max_mount_bytes=tiny_repo.size_of(uri),
                on_budget=ON_BUDGET_PARTIAL,
            ),
        )
        lo, hi = executor.statistics().file_span(uri)
        gate = threading.Event()
        session = ExplorationSession(executor, prefetch=True)
        session.predictor = _Predictor((lo, (lo + hi) // 2), gate=gate)
        self.during_mount = lambda: None

        def on_mount(_uri, _batch):
            self.during_mount()
            gate.set()
            assert _wait(lambda: session.scheduler.stats.hint_extractions == 1)

        executor.mounts.add_mount_callback(on_mount)
        session.run(
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.uri = 'nowhere'"
        )
        assert session.predictor.entered.wait(10.0)
        sql = (
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            f"WHERE F.uri = '{uri}'"
        )
        yield session, sql, uri
        gate.set()
        session.close()

    def test_overlapping_hint_is_not_charged_to_the_query(self, overlapping):
        session, sql, uri = overlapping
        stats = session.scheduler.stats
        result = session.run(sql)
        assert stats.hint_extractions >= 1
        assert not session.history[-1].truncated
        assert result.rows()[0][0] > 0

    def test_cancelled_query_does_not_take_the_hint_with_it(
        self, overlapping
    ):
        session, sql, uri = overlapping
        stats = session.scheduler.stats
        self.during_mount = lambda: session.engine.cancel("ctrl-c")
        with pytest.raises(QueryCancelledError):
            session.run(sql)
        assert stats.hint_extractions == 1
        assert stats.tasks_failed == 0


    def test_a_failed_hint_is_dropped_and_scores_no_breaker(
        self, prefetching, one_file_plans
    ):
        prefetching.predict_with(_Predictor(_hull(prefetching.executor)))
        stats = prefetching.scheduler.stats
        every_read_short = FaultPlan(
            [FaultSpec(uri_suffix=".xseed", kind=SHORT_READ, times=-1)]
        )
        with every_read_short.install():
            prefetching.run(
                "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
                "WHERE F.uri = 'nowhere'"
            )
            assert _wait(lambda: stats.tasks_failed == 1)
        assert (stats.hints_registered, stats.hint_extractions) == (1, 0)
        assert len(prefetching.breaker) == 0
        assert len(prefetching.executor.cache) == 0


class TestSpeculationIsOffThread:
    """Prediction and planning run on a scheduler worker, in the deferred
    plan — in a session as in a service — never on the query's thread."""

    def test_a_blocked_plan_delays_no_query(self, prefetching):
        gate = threading.Event()
        predictor = prefetching.predict_with(
            _Predictor(_hull(prefetching.executor), gate=gate)
        )
        try:
            first = prefetching.run(_NARROW)
            assert predictor.entered.wait(10.0)
            # The plan waits at its prediction; the next query does not.
            assert prefetching.run(_NARROW) == first
            assert not gate.is_set()
            assert threading.current_thread() not in predictor.threads
        finally:
            gate.set()

    def test_a_raising_prediction_loses_no_answer(
        self, prefetching, tiny_repo
    ):
        predictor = prefetching.predict_with(
            _Predictor(_hull(prefetching.executor), failures=1)
        )
        expected = _executor(tiny_repo).execute(_NARROW).rows
        assert prefetching.run(_NARROW) == expected
        if prefetching.shape == "session":
            assert len(prefetching.session.history) == 1
        else:
            stats = prefetching.service.stats()
            assert (stats.queries_completed, stats.queries_failed) == (1, 0)
        # The worker lives on and runs the next query's plan.
        assert predictor.raised.wait(10.0)
        assert prefetching.run(_NARROW) == expected
        stats = prefetching.scheduler.stats
        assert _wait(lambda: stats.hints_registered > 0)
        assert len(predictor.threads) == 2

    def test_a_plan_stops_at_the_byte_bound(self, prefetching, monkeypatch):
        """One prediction over a window every file overlaps: the planned
        files' ``F.size_bytes`` stop once they reach the bound."""
        files = prefetching.executor.statistics().files
        sizes = {uri: files[uri].size_bytes for uri in files}
        first, second = list(sizes.values())[:2]
        bound = first + second // 2
        monkeypatch.setattr(prefetch, "MAX_BYTES_PER_ROUND", bound)
        hinted = []
        hint = prefetching.scheduler.hint

        def spy(tasks):
            hinted.extend(uri for _table, uri, _request in tasks)
            return hint(tasks)

        monkeypatch.setattr(prefetching.scheduler, "hint", spy)
        prefetching.predict_with(_Predictor(_hull(prefetching.executor)))
        prefetching.run(_NARROW)
        assert _wait(lambda: hinted)
        assert hinted == list(sizes)[:2]
        planned = [sizes[uri] for uri in hinted]
        assert sum(planned[:-1]) < bound <= sum(planned)

