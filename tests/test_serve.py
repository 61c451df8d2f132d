"""The service layer: shared-work scheduling, tenancy, and equivalence.

Four obligations, each with its own cell:

* **Equivalence** — a service answer must be byte-identical to the same
  query in an independent session, across scheduler worker counts. Sharing
  is an optimization, never a semantic.
* **Fairness** — the scheduler's aging term must eventually outrank any
  popularity: a lone low-overlap query beats a fresh popular task once it
  has waited long enough.
* **Isolation** — admission control sheds deterministically on queue
  depth and on an exhausted tenant byte ledger.
* **Ownership** — the shared cache's first-store-wins story holds under a
  thread hammer: one entry, exact byte accounting, every loser counted.
* **The batch window waits for the crowd, not for the clock** — a task runs
  once every query that could still join it has; the window is only the
  longest that can take.
* **One query, one context** — the service runs every query through one
  executor; a tenant's cancellation, deadline and retry budget reach that
  tenant's query only, never the extraction another tenant is waiting on.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.core import IngestionCache, TwoStageExecutor
from repro.core.cache import CachePolicy
from repro.core.governor import CancellationToken, QueryBudget
from repro.core.mounting import ExtractResult
from repro.obs import MountSpan, worker_busy_seconds
from repro.db import Database
from repro.db.errors import (
    DatabaseError,
    FileIngestError,
    QueryBudgetExceeded,
    QueryCancelledError,
    QueryShedError,
)
from repro.db.column import Column
from repro.db.table import ColumnBatch
from repro.db.types import DataType
from repro.explore import ExplorationSession
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.ingest.formats import MountRequest
from repro.mseed import FileRepository, RepositorySpec, generate_repository
from repro.remote import (
    NetworkProfile,
    RemoteRepository,
    SimulatedObjectStore,
    TransportPolicy,
)
from repro.serve import (
    MountScheduler,
    QueryService,
    TenantPolicy,
    build_workload,
    run_comparison,
    run_service_load,
)
from repro.testing.oracle import ConfigPoint, FaultScript, run, verdicts

SERVE_SEED = 20130610  # same fixed seed discipline as the chaos suite

# tiny_spec scale; records span 20000s so the driver's mid-day windows fall
# in a record whose start_time clears the strict R.start_time > day_start
# predicate (a spec with day-long records would make every answer empty).
SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE", "BHZ"),
    days=2,
    sample_rate=0.05,
    samples_per_record=1000,
)


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_repo")
    generate_repository(root, SPEC)
    return FileRepository(root)


@pytest.fixture(scope="module")
def metadata_db(repo):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return db


def _service(repo, db=None, **kwargs):
    kwargs.setdefault("batch_window_seconds", 0.01)
    return QueryService(repo, db=db, **kwargs)


_SCAN_ALL = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri"


def _before_extract(service, monkeypatch, hook):
    """Run ``hook(uri)`` ahead of every extraction from disk."""
    mounts = service._executor.mounts
    extract = mounts._extract

    def hooked(uri, *args, **kwargs):
        hook(uri)
        return extract(uri, *args, **kwargs)

    monkeypatch.setattr(mounts, "_extract", hooked)


# -- scheduler unit cells (fake clock, no threads) ---------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _batch(name: str, values: list[int]) -> ColumnBatch:
    return ColumnBatch([name], [Column.from_pylist(DataType.INT64, values)])


def _result(tag: str = "x") -> ExtractResult:
    return ExtractResult(
        batch=_batch(tag, [0]), io_seconds=0.0, bytes_read=100
    )


class TestSchedulerUnit:
    def _scheduler(self, extract, clock=None):
        return MountScheduler(extract, workers=0, clock=clock or FakeClock())

    def test_policy_validation(self, repo, metadata_db):
        """A window that is negative or not finite is refused up front: a
        NaN or infinite one would keep every task inside its window, and a
        worker-less scheduler's take would never return."""
        for window in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="batch_window_seconds"):
                MountScheduler(lambda *a: _result(), batch_window_seconds=window)
            with pytest.raises(ValueError, match="batch_window_seconds"):
                QueryService(repo, db=metadata_db, batch_window_seconds=window)

    def test_throughput_bias_prefers_popular_task(self):
        clock = FakeClock()
        sched = self._scheduler(lambda *a: _result(), clock=clock)
        sched.register(1, [("d", "lone.xseed", None)])
        sched.register(2, [("d", "popular.xseed", None)])
        sched.register(3, [("d", "popular.xseed", None)])
        sched.register(4, [("d", "popular.xseed", None)])
        # Same age, three waiters vs one: popularity wins.
        assert sched.peek_next() == ("d", "popular.xseed")

    def test_fifo_at_zero_bias(self):
        """Tasks of equal popularity go in arrival order."""
        clock = FakeClock()
        sched = self._scheduler(lambda *a: _result(), clock=clock)
        waiting = {}
        arrivals = (("first.xseed", 0.0), ("second.xseed", 0.0), ("third.xseed", 0.1))
        for client, (name, at) in enumerate(arrivals, start=1):
            clock.now = at
            [(key, task)] = sched.register(client, [("d", name, None)]).items()
            waiting[key] = (client, task)
        clock.now = 0.2
        order = []
        while (key := sched.peek_next()) is not None:
            order.append(key[1])
            sched.take(*waiting[key])
        # One waiter each: older first, and the earlier of two equals.
        assert order == ["first.xseed", "second.xseed", "third.xseed"]

    def test_starvation_aging_beats_full_throughput_bias(self):
        """A lone old task outranks a fresh popular one."""
        clock = FakeClock()
        sched = self._scheduler(lambda *a: _result(), clock=clock)
        sched.register(1, [("d", "lone.xseed", None)])
        # Heavy overlap load arrives much later; the lone task has aged.
        clock.now = 2.0
        for client in (2, 3, 4, 5):
            sched.register(client, [("d", "popular.xseed", None)])
        # lone: 0.7 × 1 waiter + 2.0 s / 0.25 s = 8.7; popular: 0.7 × 4 = 2.8.
        assert sched.peek_next() == ("d", "lone.xseed")
        # And a *fresh* lone task would lose to the same crowd.
        sched.register(6, [("d", "fresh.xseed", None)])
        tasks = sched.register(1, [("d", "lone.xseed", None)])
        result, _, _ = sched.take(1, tasks[("d", "lone.xseed")])
        assert sched.peek_next() == ("d", "popular.xseed")

    def test_shared_extraction_single_flight(self):
        calls: list[str] = []

        def extract(uri, table, request):
            calls.append(uri)
            return _result()

        sched = self._scheduler(extract)
        tasks_a = sched.register(1, [("d", "shared.xseed", None)])
        tasks_b = sched.register(2, [("d", "shared.xseed", None)])
        result_a, _, _ = sched.take(1, tasks_a[("d", "shared.xseed")])
        result_b, _, _ = sched.take(2, tasks_b[("d", "shared.xseed")])
        assert calls == ["shared.xseed"]
        assert result_a is result_b
        assert sched.stats.grants == 2
        assert sched.stats.shared_grants == 1
        assert sched.stats.bytes_shared == 100
        # Fully consumed: the task table must not leak.
        assert sched.pending_tasks() == 0

    def test_pending_requests_hull_merge(self):
        seen: list[MountRequest] = []

        def extract(uri, table, request):
            seen.append(request)
            return _result()

        sched = self._scheduler(extract)
        tasks = sched.register(
            1, [("d", "f.xseed", MountRequest(interval=(100, 200)))]
        )
        sched.register(
            2, [("d", "f.xseed", MountRequest(interval=(150, 400)))]
        )
        sched.take(1, tasks[("d", "f.xseed")])
        assert seen[0].interval == (100, 400)

    def test_failure_delivered_to_every_waiter_then_fresh_task(self):
        calls: list[str] = []

        def extract(uri, table, request):
            calls.append(uri)
            raise FileIngestError("boom", uri=uri)

        sched = self._scheduler(extract)
        tasks_a = sched.register(1, [("d", "bad.xseed", None)])
        tasks_b = sched.register(2, [("d", "bad.xseed", None)])
        with pytest.raises(FileIngestError):
            sched.take(1, tasks_a[("d", "bad.xseed")])
        with pytest.raises(FileIngestError):
            sched.take(2, tasks_b[("d", "bad.xseed")])
        assert calls == ["bad.xseed"]  # one attempt, both waiters told
        # A later query never inherits the stale failure: fresh attempt.
        tasks_c = sched.register(3, [("d", "bad.xseed", None)])
        with pytest.raises(FileIngestError):
            sched.take(3, tasks_c[("d", "bad.xseed")])
        assert calls == ["bad.xseed", "bad.xseed"]
        assert sched.stats.tasks_failed == 2

    def test_withdraw_drops_unconsumed_interest(self):
        sched = self._scheduler(lambda *a: _result())
        tasks = sched.register(1, [("d", "f.xseed", None)])
        sched.withdraw(1, list(tasks.values()))
        assert sched.stats.withdrawn == 1
        assert sched.pending_tasks() == 0


class TestBatchWindowCrowd:
    """The window closes once everyone who could still join has: driven from
    the injected clock, no workers, and no thread except where a consumer
    has to park."""

    WINDOW = 5.0
    KEY = ("d", "f.xseed")

    def _scheduler(self, extract=None, clock=None):
        return MountScheduler(
            extract or (lambda *a: _result()),
            batch_window_seconds=self.WINDOW,
            workers=0,
            clock=clock or FakeClock(),
        )

    def _watched(self, *tenants):
        """A scheduler that has watched one window with ``tenants`` each
        running a query since time 0; the clock stands at 6."""
        clock = FakeClock()
        sched = self._scheduler(clock=clock)
        for tenant in tenants:
            sched.query_started(tenant)
        clock.now = 6.0
        return sched, clock

    @staticmethod
    def _take_in_thread(sched, client, task, token=None):
        outcome = {}

        def run():
            try:
                outcome["result"] = sched.take(client, task, token=token)
            except BaseException as exc:  # noqa: BLE001 - handed to the test
                outcome["error"] = exc

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, outcome

    def test_window_stays_open_until_every_running_query_joined(self):
        sched, _ = self._watched("a", "b")
        sched.register(1, [self.KEY])
        assert sched.peek_next() is None  # b could still join
        sched.register(2, [self.KEY])
        assert sched.peek_next() == self.KEY  # nobody left to wait for

    def test_finishing_one_of_a_tenants_queries_shrinks_the_crowd(self):
        sched, _ = self._watched("a", "a")
        sched.register(1, [self.KEY])
        assert sched.peek_next() is None  # a's other query could still join
        sched.query_finished("a")  # it did not, and a is still here
        assert sched.peek_next() == self.KEY

    def test_departed_tenant_counts_for_one_window(self):
        sched, clock = self._watched("a", "b")
        sched.query_finished("b")  # at 6: a closed-loop b is about to be back
        clock.now = 7.0
        sched.register(1, [self.KEY])
        assert sched.peek_next() is None
        clock.now = 10.9
        assert sched.peek_next() is None
        clock.now = 11.0  # b has been gone a window; the task's own ends at 12
        assert sched.peek_next() == self.KEY

    def test_returning_tenant_is_counted_once(self):
        sched, clock = self._watched("a", "b")
        sched.query_finished("b")
        sched.query_started("b")
        sched.register(1, [self.KEY])
        sched.register(2, [self.KEY])
        assert sched.peek_next() == self.KEY

    def test_nothing_closes_early_before_one_window_was_watched(self):
        clock = FakeClock()
        sched = self._scheduler(clock=clock)
        sched.query_started("a")  # the first reported query, at 0
        clock.now = 3.0
        sched.register(1, [self.KEY])  # alone, but maybe a burst's first
        assert sched.peek_next() is None
        clock.now = 4.9
        assert sched.peek_next() is None
        clock.now = 5.0  # one window watched; the task's own ends at 8
        assert sched.peek_next() == self.KEY

    def test_unreported_scheduler_keeps_the_fixed_window(self):
        clock = FakeClock()
        sched = self._scheduler(clock=clock)
        clock.now = 100.0
        sched.register(1, [self.KEY])
        sched.register(2, [self.KEY])
        clock.now = 104.9
        assert sched.peek_next() is None
        clock.now = 105.0
        assert sched.peek_next() == self.KEY

    def test_lone_tenant_take_does_not_sit_out_the_window(self):
        sched, _ = self._watched("a")
        task = sched.register(1, [self.KEY])[self.KEY]
        # The clock never reaches the window's end: only the crowd rule can
        # let this take return.
        thread, outcome = self._take_in_thread(sched, 1, task)
        thread.join(5.0)
        assert not thread.is_alive()
        assert outcome["result"][0].bytes_read == 100
        assert sched.stats.inline_steals == 1

    def test_cancellation_inside_the_window_interrupts_and_withdraws(self):
        sched, _ = self._watched("a", "b")
        task = sched.register(1, [self.KEY])[self.KEY]
        token = CancellationToken()
        token.cancel("changed my mind")
        thread, outcome = self._take_in_thread(sched, 1, task, token)
        thread.join(5.0)
        assert not thread.is_alive()
        assert isinstance(outcome["error"], QueryCancelledError)
        assert sched.stats.withdrawn == 1
        assert sched.stats.tasks_extracted == 0
        assert sched.pending_tasks() == 0

    def test_completing_register_wakes_the_parked_consumer(self):
        parking = threading.Event()

        class ParkingClock(FakeClock):
            def __call__(self):
                # take() reads the clock under the scheduler's lock and
                # keeps it until it parks: once this fires, the register
                # below cannot get in before the consumer waits.
                if threading.current_thread() is not threading.main_thread():
                    parking.set()
                return self.now

        calls = []

        def extract(uri, table, request):
            calls.append(uri)
            return _result()

        clock = ParkingClock()
        sched = self._scheduler(extract, clock=clock)
        sched.query_started("a")
        sched.query_started("b")
        clock.now = 6.0
        task = sched.register(1, [self.KEY])[self.KEY]
        thread, outcome = self._take_in_thread(sched, 1, task)
        assert parking.wait(5.0)
        joined = sched.register(2, [self.KEY])  # completes the crowd
        thread.join(5.0)
        assert not thread.is_alive()
        assert "result" in outcome
        sched.take(2, joined[self.KEY])
        assert calls == ["f.xseed"]
        assert sched.stats.shared_grants == 1


class TestSuccessorTask:
    def _scheduler(self, extract):
        return MountScheduler(
            extract,
            workers=0,
            clock=FakeClock(),
        )

    def test_late_wider_arrivals_share_one_successor(self):
        """A running task too narrow for a newcomer gets one successor that
        later arrivals merge into: two extractions, not one per stranger."""
        key = ("d", "f.xseed")
        seen: list[MountRequest] = []
        late: dict[int, object] = {}

        def extract(uri, table, request):
            seen.append(request)
            if len(seen) == 1:  # the first task is running right now
                for client, interval in ((2, (120, 180)), (3, (50, 400)), (4, (300, 500))):
                    late[client] = sched.register(
                        client, [(*key, MountRequest(interval=interval))]
                    )[key]
            return ExtractResult(
                batch=_batch("x", [0]),
                io_seconds=0.0,
                coverage=request.interval,
                bytes_read=100,
            )

        sched = self._scheduler(extract)
        first = sched.register(1, [(*key, MountRequest(interval=(100, 200)))])[key]
        narrow, _, _ = sched.take(1, first)
        assert late[2] is first  # covered: joins the running task
        assert late[3] is not first and late[4] is late[3]
        assert sched.take(2, late[2])[0] is narrow
        wide, _, _ = sched.take(3, late[3])
        assert sched.take(4, late[4])[0] is wide
        assert [r.interval for r in seen] == [(100, 200), (50, 500)]
        assert sched.stats.tasks_created == 2
        assert sched.stats.tasks_extracted == 2
        assert sched.stats.shared_grants == 2
        assert sched.pending_tasks() == 0

    def test_a_running_task_every_waiter_left_is_not_joined(self):
        """An extraction whose waiters all left while it ran (a Top-N
        release, a query that ended) read the file as it was before a later
        query began: that query opens a successor instead of joining it."""
        key = ("d", "f.xseed")
        running, finish = threading.Event(), threading.Event()
        calls = []

        def extract(uri, table, request):
            calls.append(uri)
            running.set()
            finish.wait(5.0)
            return _result()

        sched = MountScheduler(
            extract,
            workers=1,
        )
        sched.start()
        try:
            first = sched.register(1, [key])[key]
            assert running.wait(5.0)  # a worker runs it...
            sched.withdraw(1, [first])  # ...and its only waiter leaves
            second = sched.register(2, [key])[key]
            finish.set()
            assert second is not first
            assert sched.take(2, second)[0].bytes_read == 100
        finally:
            finish.set()
            sched.close()
        assert len(calls) == 2

    def test_whole_file_task_covers_every_late_arrival(self):
        key = ("d", "f.xseed")
        sched = self._scheduler(lambda *a: _result())
        first = sched.register(1, [key])[key]
        sched.register(2, [key])  # keeps the finished task alive
        sched.take(1, first)
        bounded = sched.register(3, [(*key, MountRequest(interval=(1, 2)))])
        assert bounded[key] is first
        # ...while a finished bounded task does not cover a whole-file ask.
        other = ("d", "g.xseed")
        narrow = sched.register(1, [(*other, MountRequest(interval=(1, 2)))])[other]
        sched.register(2, [(*other, MountRequest(interval=(1, 2)))])
        sched.take(1, narrow)
        assert sched.register(3, [other])[other] is not narrow


class TestSchedulerLifecycle:
    def test_concurrent_start_spawns_workers_once(self):
        """Regression: start() used to check ``self._threads`` outside the
        lock, so two racing callers could each see the empty list and spawn
        a double complement of workers."""
        workers = 3
        sched = MountScheduler(
            lambda *a: _result(),
            workers=workers,
        )
        barrier = threading.Barrier(4)

        def start() -> None:
            barrier.wait(2.0)
            sched.start()

        starters = [threading.Thread(target=start) for _ in range(4)]
        for t in starters:
            t.start()
        for t in starters:
            t.join(2.0)
        with sched._lock:
            spawned = list(sched._threads)
        assert len(spawned) == workers
        sched.close()
        assert all(not t.is_alive() for t in spawned)

    def test_close_is_idempotent_and_restartable(self):
        sched = MountScheduler(
            lambda *a: _result(),
            workers=2,
        )
        sched.start()
        sched.close()
        sched.close()  # second close finds no threads to join
        sched.start()  # restart spawns a fresh complement
        with sched._lock:
            assert len(sched._threads) == 2
        sched.close()


# -- end-to-end equivalence ---------------------------------------------------


class TestServiceEquivalence:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_answers_byte_identical_across_grid(self, repo, workers):
        service = _service(repo, mount_workers=workers)
        try:
            report = run_comparison(
                repo, SPEC, clients=4, queries_per_client=2, service=service
            )
        finally:
            service.close()
        assert report.identical, report.mismatches
        assert report.service_stats.queries_failed == 0
        # Never worse than independent sessions on aggregate disk bytes.
        assert report.service.mount_bytes <= report.baseline.mount_bytes
        assert report.bytes_savings_ratio >= 1.0
        assert 0 < report.service.percentile(50) <= report.service.percentile(99)
        assert "queries: 8 completed, 0 failed, 0 shed" in (
            report.service_stats.describe()
        )
        # Every query ended consumed or withdrawn: no leaked scheduler tasks.
        assert service.scheduler.pending_tasks() == 0

    def test_concurrent_load_shares_extractions(self, repo):
        workload = build_workload(SPEC, clients=4, queries_per_client=2)
        service = _service(repo)
        try:
            result = run_service_load(service, workload)
            stats = service.stats()
        finally:
            service.close()
        assert all(o.error is None for o in result.outcomes)
        # 8 queries over 2 distinct files: sharing must have happened via
        # the scheduler, the cache fast path, or both.
        assert (
            stats.scheduler.shared_grants + stats.cache.hits
        ) > 0, stats.describe()

    WINDOW = 0.5

    def _two_tenants_together(self, repo, metadata_db):
        """Tenants "a" and "b", both closed-loop and just back, submit one
        single-file query together; their outcomes and the service's
        stats."""
        service = QueryService(
            repo,
            db=metadata_db,
            batch_window_seconds=self.WINDOW,
        )
        [[sql]] = build_workload(SPEC, clients=1, queries_per_client=1)
        count_files = "SELECT COUNT(*) FROM F"
        with service:
            service.execute(count_files, tenant="a")  # first reported query
            threading.Event().wait(self.WINDOW)  # ...and one window watched
            for tenant in ("a", "b"):
                service.execute(count_files, tenant=tenant)
            futures = [service.submit(sql, tenant=t) for t in ("a", "b")]
            outcomes = [future.result(timeout=30) for future in futures]
            return outcomes, service.stats()

    def test_two_tenants_together_share_one_extraction_without_the_window(
        self, repo, metadata_db
    ):
        outcomes, stats = self._two_tenants_together(repo, metadata_db)
        rows = [outcome.rows for outcome in outcomes]
        assert rows[0] and rows[0] == rows[1]
        assert stats.scheduler.tasks_extracted == 1
        assert stats.scheduler.shared_grants == 1
        assert stats.scheduler.max_wait_seconds < self.WINDOW / 2

    def test_one_shared_extraction_is_read_once_and_charged_to_each_trace(
        self, repo, metadata_db
    ):
        outcomes, stats = self._two_tenants_together(repo, metadata_db)
        assert stats.scheduler.tasks_extracted == 1
        [read] = {outcome.trace.counters["bytes_read"] for outcome in outcomes}
        assert read > 0
        assert stats.total_mount_bytes == read
        assert [t.bytes_charged for t in stats.tenants] == [read, read]

    def test_slow_consumer_bounds_unconsumed_batches(
        self, repo, metadata_db, monkeypatch
    ):
        """A served query's workers stay within 2 × workers extractions
        ahead of a consumer that is slower than they are."""
        service = _service(repo, db=metadata_db, mount_workers=2)
        started, high_water = [], [0]

        def count(uri):
            started.append(uri)
            # A grant is counted before its task stops counting against the
            # bound, so this is the claimed-and-unconsumed count.
            grants = service.scheduler.stats.grants
            high_water[0] = max(high_water[0], len(started) - grants)

        _before_extract(service, monkeypatch, count)
        service._executor.mounts.add_mount_callback(
            lambda uri, batch: threading.Event().wait(0.005)
        )
        with service:
            service.execute(_SCAN_ALL)
        assert len(started) == len(repo.uris()) > 4
        assert high_water[0] <= 4

    def test_served_query_reports_the_workers_that_ran_it(
        self, repo, metadata_db, monkeypatch
    ):
        service = _service(repo, db=metadata_db, mount_workers=2)
        _before_extract(
            service, monkeypatch, lambda uri: threading.Event().wait(0.01)
        )
        with service:
            trace = service.execute(_SCAN_ALL).trace
        mounts = [s for s in trace.spans if isinstance(s, MountSpan)]
        assert len(mounts) == len(repo.uris()) >= 8
        assert len(worker_busy_seconds(trace)) > 1

    def test_session_runs_unchanged_over_tenant_client(self, repo):
        from repro.explore import ExplorationSession

        with _service(repo) as service:
            session = ExplorationSession(engine=service.client("sci"))
            value = session.quick_look("ISK", "BHE", SPEC.start_day)
        standalone = ExplorationSession(
            engine=TwoStageExecutor(
                _fresh_db(repo), RepositoryBinding(repo)
            )
        )
        assert value == standalone.quick_look("ISK", "BHE", SPEC.start_day)


class TestSharedStatistics:
    """Every served query plans with the service's one statistics memo,
    collected once per metadata load."""

    @pytest.fixture()
    def collections(self, monkeypatch):
        from repro.core import statsindex

        calls = []
        collect = statsindex.collect_statistics

        def counting(*args, **kwargs):
            calls.append(threading.current_thread().name)
            return collect(*args, **kwargs)

        monkeypatch.setattr(statsindex, "collect_statistics", counting)
        return calls

    def test_served_queries_collect_statistics_once(
        self, repo, metadata_db, collections
    ):
        [[sql]] = build_workload(SPEC, clients=1, queries_per_client=1)
        with _service(repo, db=metadata_db) as service:
            for tenant in ("a", "b", "a"):
                service.execute(sql, tenant=tenant)
        assert len(collections) == 1

    def test_racing_first_calls_collect_once(self, metadata_db, collections):
        import sys

        from repro.core.statsindex import StatisticsIndex

        index = StatisticsIndex(metadata_db)
        barrier = threading.Barrier(8)
        seen = []

        def ask():
            barrier.wait(5.0)
            seen.append(index())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(catalog is seen[0] for catalog in seen)
        assert len(collections) == 1
        assert len(seen[0].files) == SPEC.file_count


def _fresh_db(repo):
    db = Database()
    lazy_ingest_metadata(db, repo)
    return db


# -- chaos: faults under concurrency -----------------------------------------


class TestServeChaos:
    def test_recoverable_faults_absorbed_under_load(self, reference, tmp_path):
        workload = build_workload(SPEC, clients=3, queries_per_client=2)
        reached = run(
            reference, sum(workload, []), tmp_path, ConfigPoint(tenants=3),
            FaultScript(seed=SERVE_SEED, rate=1.0),  # within the retry budget
        )
        assert verdicts(reached) == ["rows"] * 18


# -- one query, one context ---------------------------------------------------


class _ScriptedListStore(SimulatedObjectStore):
    """LISTs fail while ``failing``; ``before_list[n]`` runs ahead of the
    n-th failing one, on the thread that issued it."""

    failing = False
    failed_lists = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.before_list = {}

    def list_keys(self, after=None, deadline=None, token=None, prefix=""):
        if not self.failing:
            return super().list_keys(after, deadline, token, prefix)
        self.failed_lists += 1
        self.before_list.pop(self.failed_lists, lambda: None)()
        raise ConnectionResetError(f"scripted reset (LIST {prefix!r})")


class TestCrossTenantIsolation:
    """Two tenants, one service, one remote repository. What belongs to
    tenant b's query — its token, its deadline, its retry budget — used to
    be written onto the shared transport by b's start, where the extraction
    tenant a was waiting on picked it up."""

    # Two files (one station/channel, both days), no time bound.
    SQL = (
        "SELECT COUNT(*), AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND F.channel = 'BHE'"
    )

    @pytest.fixture()
    def remote_db(self, tiny_repo, tmp_path):
        """Metadata of the remote objects, walked over a free link."""
        db = Database()
        lazy_ingest_metadata(
            db,
            RemoteRepository(
                SimulatedObjectStore("seis-eu", tiny_repo.root),
                tmp_path / "ingest",
            ),
        )
        return db

    def _slow_service(self, tiny_repo, remote_db, tmp_path):
        # A cold extraction is one request: this long, so that tenant b's
        # cancel / deadline (0.25 s in) lands while it is in flight.
        store = SimulatedObjectStore(
            "seis-eu", tiny_repo.root, NetworkProfile(latency_seconds=0.45)
        )
        return _service(RemoteRepository(store), db=remote_db)

    def _assert_only_b_failed(self, service, future_a, ei_db):
        assert future_a.result(timeout=30).rows == ei_db.execute(self.SQL).rows()
        tenants = {t.name: t for t in service.stats().tenants}
        assert (tenants["a"].completed, tenants["a"].failed) == (1, 0)
        assert (tenants["b"].completed, tenants["b"].failed) == (0, 1)

    def test_cancelling_one_tenant_leaves_the_others_extraction_alone(
        self, tiny_repo, remote_db, ei_db, tmp_path
    ):
        token = CancellationToken()
        with self._slow_service(tiny_repo, remote_db, tmp_path) as service:
            future_a = service.submit(self.SQL, tenant="a")
            threading.Event().wait(0.05)  # a's cold extraction is in flight
            future_b = service.submit(self.SQL, tenant="b", cancellation=token)
            threading.Event().wait(0.2)
            token.cancel("tenant b's user pressed ctrl-c")
            with pytest.raises(QueryCancelledError, match="tenant b's user"):
                future_b.result(timeout=30)
            self._assert_only_b_failed(service, future_a, ei_db)

    def test_one_tenants_deadline_leaves_the_others_extraction_alone(
        self, tiny_repo, remote_db, ei_db, tmp_path
    ):
        with self._slow_service(tiny_repo, remote_db, tmp_path) as service:
            future_a = service.submit(self.SQL, tenant="a")
            threading.Event().wait(0.05)
            future_b = service.submit(
                self.SQL, tenant="b", budget=QueryBudget(deadline_seconds=0.25)
            )
            with pytest.raises(QueryBudgetExceeded, match="deadline"):
                future_b.result(timeout=30)
            self._assert_only_b_failed(service, future_a, ei_db)

    def test_a_query_starting_does_not_refill_anothers_retry_budget(
        self, tiny_repo, remote_db, tmp_path
    ):
        """Tenant a's query observes its two cached files with one LIST at
        the breakpoint, against an endpoint that resets every LIST, on a
        budget of one retry: the first attempt's failure spends it, the
        second's gets none — even though tenant b's query starts (and ends)
        in between. The scans then serve the cached rows unobserved."""
        store = _ScriptedListStore("seis-eu", tiny_repo.root)
        repository = RemoteRepository(
            store,
            policy=TransportPolicy(
                max_attempts=3,
                backoff_seconds=0.0,
                retry_budget_attempts=1,
                breaker_failures=10**6,
            ),
        )
        with _service(repository, db=remote_db) as service:
            warm = service.execute(self.SQL, tenant="a").rows
            store.failing = True
            # Ahead of the LIST's second attempt, on a's own thread.
            store.before_list[2] = lambda: service.execute(
                "SELECT COUNT(*) FROM F", tenant="b"
            )
            served = service.execute(self.SQL, tenant="a")
        assert served.rows == warm
        assert served.result.trace.counters["cache_scans"] == 2
        assert store.failed_lists == 2 and not store.before_list
        assert store.stats.heads == 0
        stats = repository.transport.stats
        assert (stats.retries, stats.retries_denied) == (1, 1)


class TestOneExecutor:
    def test_service_constructs_one_executor_for_its_lifetime(
        self, repo, metadata_db, monkeypatch
    ):
        from repro.serve import service as service_module

        built = []

        class Counting(TwoStageExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(service_module, "TwoStageExecutor", Counting)
        workload = build_workload(SPEC, clients=3, queries_per_client=7)
        standalone = TwoStageExecutor(_fresh_db(repo), RepositoryBinding(repo))
        with _service(repo, db=metadata_db) as service:
            served = 0
            for tenant, queries in enumerate(workload):
                for sql in queries[: 7 if tenant < 2 else 6]:
                    rows = service.execute(sql, tenant=f"t{tenant}").rows
                    assert rows == standalone.execute(sql).rows
                    served += 1
            stats = service.stats()
        assert served == 20 and stats.queries_completed == 20
        assert len(stats.tenants) == 3
        assert len(built) == 1


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_queue_depth_shedding(self, repo, metadata_db):
        service = _service(
            repo,
            db=metadata_db,
            default_policy=TenantPolicy(max_queue_depth=0),
        )
        try:
            with pytest.raises(QueryShedError) as excinfo:
                service.execute("SELECT COUNT(*) FROM F", tenant="t0")
        finally:
            service.close()
        assert excinfo.value.tenant == "t0"
        assert isinstance(excinfo.value, DatabaseError)
        snapshot = {t.name: t for t in service.stats().tenants}
        assert snapshot["t0"].shed == 1
        assert snapshot["t0"].admitted == 0

    def test_byte_ledger_shedding(self, repo, metadata_db):
        workload = build_workload(SPEC, clients=1, queries_per_client=1)
        sql = workload[0][0]
        service = _service(
            repo,
            db=metadata_db,
            default_policy=TenantPolicy(max_total_mount_bytes=1),
        )
        try:
            # First query is admitted (ledger empty) and mounts past the
            # allowance; the next admission for the same tenant sheds.
            first = service.execute(sql, tenant="greedy")
            assert first.result.num_rows > 0
            with pytest.raises(QueryShedError):
                service.execute(sql, tenant="greedy")
            # A different tenant has its own ledger and is unaffected.
            other = service.execute(sql, tenant="frugal")
            assert other.rows == first.rows
        finally:
            service.close()
        snapshot = {t.name: t for t in service.stats().tenants}
        assert snapshot["greedy"].bytes_charged > 1
        assert snapshot["greedy"].shed == 1
        assert snapshot["frugal"].shed == 0

    def test_closed_service_sheds(self, repo, metadata_db):
        service = _service(repo, db=metadata_db)
        service.close()
        with pytest.raises(QueryShedError):
            service.execute("SELECT COUNT(*) FROM F")


# -- cache ownership under concurrency ---------------------------------------


class TestCacheOwnership:
    def test_first_store_wins_hammer(self):
        cache = IngestionCache(policy=CachePolicy.UNBOUNDED)
        batch = _batch("v", list(range(64)))
        threads = 16
        barrier = threading.Barrier(threads)

        def store():
            barrier.wait()
            cache.store("contested.xseed", batch)

        workers = [threading.Thread(target=store) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert len(cache) == 1
        assert cache.stats.insertions == 1
        assert cache.stats.duplicate_stores == threads - 1
        assert cache.stats.current_bytes == batch.nbytes()


@pytest.mark.parametrize("make, refusal", [
    (lambda: build_workload(SPEC, clients=0, queries_per_client=1), ">= 1"),
    (
        lambda: build_workload(SPEC, clients=100, queries_per_client=1),
        "window too narrow",
    ),
    (lambda: TenantPolicy(max_queue_depth=-1), "max_queue_depth"),
    (lambda: TenantPolicy(max_total_mount_bytes=-1), "max_total_mount_bytes"),
])
def test_load_and_tenant_policy_refusals(make, refusal):
    with pytest.raises(ValueError, match=refusal):
        make()


def test_service_needs_a_query_slot(repo):
    with pytest.raises(ValueError, match="max_concurrent_queries"):
        QueryService(repo, max_concurrent_queries=0)
