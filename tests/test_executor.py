"""Tests for the two-stage executor — including the central invariant of the
reproduction: for every supported query, two-stage ALi execution returns the
same answer as conventional execution over an eagerly loaded database."""

import math
import sys
import threading

import pytest

from repro.core import (
    ON_BUDGET_PARTIAL,
    AbortAboveCost,
    CachePolicy,
    CacheGranularity,
    CancellationToken,
    IngestionCache,
    LimitFilesAboveCost,
    MountContext,
    MountService,
    MultiStageExecutor,
    PER_FILE,
    QueryBudget,
    TwoStageExecutor,
)
from repro.db import Database
from repro.db.errors import QueryAbortedError, QueryCancelledError
from repro.ingest import FILE_TABLE, RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository, generate_repository
from repro.remote import RemoteRepository, SimulatedObjectStore
from repro.serve import QueryService, TenantPolicy
from repro.serve.scheduler import MountScheduler
from repro.testing import READ_LATENCY, FaultPlan, FaultSpec
from repro.testing.oracle import ConfigPoint, run, same_rows, verdicts


# A family of queries spanning the supported SQL surface, all answerable by
# both engines. Each must yield identical results under Ei and ALi.
EQUIVALENCE_QUERIES = [
    # the paper's queries
    pytest.param("query1", id="paper-query1"),
    pytest.param("query2", id="paper-query2"),
    # metadata-only
    pytest.param(
        "SELECT station, COUNT(*) AS n FROM F GROUP BY station ORDER BY station",
        id="metadata-group-by",
    ),
    pytest.param(
        "SELECT F.station, R.nsamples FROM F JOIN R ON F.uri = R.uri "
        "WHERE R.record_id = 0 ORDER BY F.uri",
        id="metadata-join",
    ),
    # aggregates over actual data
    pytest.param(
        "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND F.channel = 'BHE'",
        id="count-star-join",
    ),
    pytest.param(
        "SELECT MIN(D.sample_value), MAX(D.sample_value) "
        "FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ANK'",
        id="min-max",
    ),
    pytest.param(
        "SELECT F.channel, AVG(D.sample_value) AS a, COUNT(*) AS n "
        "FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' GROUP BY F.channel ORDER BY F.channel",
        id="grouped-aggregate",
    ),
    # retrieval with ordering and limit
    pytest.param(
        "SELECT D.sample_time, D.sample_value "
        "FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND F.channel = 'BHZ' "
        "AND D.sample_value > 100.0 "
        "ORDER BY D.sample_value DESC, D.sample_time LIMIT 7",
        id="order-limit",
    ),
    # expression projection over mounted data
    pytest.param(
        "SELECT D.sample_value * 2.0 + 1.0 AS scaled "
        "FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ANK' AND F.channel = 'BHE' "
        "AND D.sample_value > 500.0 ORDER BY scaled",
        id="expression-projection",
    ),
    # distinct over mounted data
    pytest.param(
        "SELECT DISTINCT D.record_id FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND F.channel = 'BHE' ORDER BY D.record_id",
        id="distinct-record-ids",
    ),
    # uri predicate directly on the actual table
    pytest.param(
        "SELECT COUNT(*) FROM D WHERE uri = '2010/KO.ISK/KO.ISK..BHE.2010.010.xseed'",
        id="uri-equality-no-metadata",
    ),
    # record-level metadata narrowing
    pytest.param(
        "SELECT SUM(D.sample_value) FROM R JOIN D "
        "ON R.uri = D.uri AND R.record_id = D.record_id "
        "WHERE R.nsamples > 0 AND R.record_id = 1",
        id="record-level-join",
    ),
]


def _judged(sql, reference, tmp_path, query1, query2, **point):
    sql = {"query1": query1, "query2": query2}.get(sql, sql)
    return verdicts(run(reference, [sql], tmp_path, ConfigPoint(**point)))


@pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
def test_ali_matches_ei(sql, reference, tmp_path, query1, query2):
    assert _judged(sql, reference, tmp_path, query1, query2) == ["rows"]


@pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
def test_per_file_strategy_matches_ei(sql, reference, tmp_path, query1, query2):
    judged = _judged(sql, reference, tmp_path, query1, query2, strategy=PER_FILE)
    assert judged == ["rows"]


def test_per_file_extremum_skips_files_with_no_rows(ali_db, tiny_repo, ei_db):
    """A file whose rows are all filtered out contributes no extremum: its
    empty partial's 0 once won MIN over every real sample time."""
    sql = (
        "SELECT MIN(D.sample_time) FROM F JOIN D ON F.uri = D.uri "
        "WHERE D.sample_time > '2010-01-11T03:00:00'"
    )
    executor = TwoStageExecutor(
        ali_db, RepositoryBinding(tiny_repo), strategy=PER_FILE
    )
    assert executor.execute(sql).rows == ei_db.execute(sql).rows()
    assert ei_db.execute(sql).rows() == [(1263178820000000,)]


class TestBreakpoint:
    def test_files_of_interest_for_query1(self, executor, query1):
        outcome = executor.execute(query1)
        assert outcome.breakpoint.n_files == 1
        (uri,) = outcome.breakpoint.files_of_interest
        assert "ISK" in uri and "BHE" in uri

    def test_stage_timings_populated(self, executor, query1):
        outcome = executor.execute(query1)
        trace = outcome.trace
        assert trace.seconds("stage1") > 0
        assert trace.seconds("stage2") > 0
        assert trace.total_seconds >= trace.seconds("stage2")

    def test_estimate_present(self, executor, query1):
        outcome = executor.execute(query1)
        estimate = outcome.breakpoint.estimate
        assert estimate is not None
        assert estimate.files == 1
        assert estimate.est_tuples > 0
        assert 0 < estimate.selectivity < 1
        assert "files of interest" in estimate.summary()

    def test_breakpoint_summary_text(self, executor, query1):
        outcome = executor.execute(query1)
        text = outcome.breakpoint.summary()
        assert "file(s) of interest" in text
        assert "rule (1)" in text

    def test_empty_files_of_interest_mounts_nothing(self, executor):
        sql = (
            "SELECT AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'NOSUCH'"
        )
        outcome = executor.execute(sql)
        assert outcome.breakpoint.n_files == 0
        assert outcome.result.trace.counters["files_mounted"] == 0
        assert math.isnan(outcome.rows[0][0])
        assert outcome.breakpoint.estimate.score == 1.0

    def test_worst_case_touches_whole_repository(self, executor, tiny_repo):
        outcome = executor.execute("SELECT COUNT(*) FROM D")
        assert outcome.breakpoint.n_files == len(tiny_repo)
        assert outcome.result.trace.counters["files_mounted"] == len(tiny_repo)

    def test_metadata_only_query_has_no_mounts(self, executor):
        outcome = executor.execute("SELECT COUNT(*) FROM F")
        assert outcome.result.trace.counters["files_mounted"] == 0
        assert outcome.breakpoint.files_by_alias == {}


class _CountingRepository(FileRepository):
    """Counts listings (``len()`` lists too, through ``uris``)."""

    listings = 0

    def uris(self, scope=None):
        self.listings += 1
        return super().uris(scope)


class TestListingOffTheQueryPath:
    """A linked query never lists the repository: the informativeness
    denominator is the ``F`` row count, not a directory walk or a LIST."""

    STATIONS = ("ISK", "ANK")

    def _linked_queries(self):
        return [
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            f"WHERE F.station = '{self.STATIONS[i % 2]}' "
            f"AND D.sample_value > {i}.0"
            for i in range(10)
        ]

    def test_local_repository_is_not_listed(self, tiny_repo):
        repo = _CountingRepository(tiny_repo.root)
        db = Database()
        lazy_ingest_metadata(db, repo)
        executor = TwoStageExecutor(db, RepositoryBinding(repo))
        repo.listings = 0
        for sql in self._linked_queries():
            estimate = executor.execute(sql).breakpoint.estimate
            assert estimate.repository_files == db.catalog.table(
                FILE_TABLE
            ).batch.num_rows
        assert repo.listings == 0

    def test_remote_repository_sends_no_list(self, tiny_repo, tmp_path):
        store = SimulatedObjectStore("seis-eu", tiny_repo.root)
        repo = RemoteRepository(store)
        db = Database()
        lazy_ingest_metadata(db, repo)
        executor = TwoStageExecutor(db, RepositoryBinding(repo))
        lists_after_ingest = store.stats.lists
        for sql in self._linked_queries():
            estimate = executor.execute(sql).breakpoint.estimate
            assert estimate.repository_files == len(tiny_repo)
        assert store.stats.lists == lists_after_ingest

    def test_unlinked_query_still_lists(self, tiny_repo):
        # With no metadata constraint the listing *is* the answer.
        repo = _CountingRepository(tiny_repo.root)
        db = Database()
        lazy_ingest_metadata(db, repo)
        executor = TwoStageExecutor(db, RepositoryBinding(repo))
        repo.listings = 0
        outcome = executor.execute("SELECT COUNT(*) FROM D")
        assert repo.listings == 1
        assert outcome.breakpoint.n_files == len(tiny_repo)


class TestCacheIntegration:
    def test_second_run_uses_cache_scans(self, ali_db, tiny_repo, query1):
        executor = TwoStageExecutor(
            ali_db,
            RepositoryBinding(tiny_repo),
            cache=IngestionCache(CachePolicy.UNBOUNDED),
        )
        first = executor.execute(query1)
        assert first.breakpoint.rewrite.mounts == 1
        second = executor.execute(query1)
        assert second.breakpoint.rewrite.mounts == 0
        assert second.breakpoint.rewrite.cache_scans == 1
        assert first.rows == second.rows

    def test_discard_policy_remounts(self, executor, query1):
        executor.execute(query1)
        outcome = executor.execute(query1)
        assert outcome.breakpoint.rewrite.mounts == 1
        assert outcome.breakpoint.rewrite.cache_scans == 0

    def test_tuple_granular_cache_equivalence(self, ali_db, tiny_repo, ei_db, query1):
        executor = TwoStageExecutor(
            ali_db,
            RepositoryBinding(tiny_repo),
            cache=IngestionCache(
                CachePolicy.UNBOUNDED, CacheGranularity.TUPLE
            ),
        )
        expected = ei_db.execute(query1).rows()
        first = executor.execute(query1)
        second = executor.execute(query1)  # served from tuple cache
        assert second.breakpoint.rewrite.cache_scans == 1
        for outcome in (first, second):
            same_rows(outcome.rows, expected, outcome.result.names, False)


class TestDestinyPolicies:
    def test_abort_above_cost(self, ali_db, tiny_repo):
        executor = TwoStageExecutor(
            ali_db,
            RepositoryBinding(tiny_repo),
            destiny=AbortAboveCost(max_files=2),
        )
        with pytest.raises(QueryAbortedError) as err:
            executor.execute("SELECT COUNT(*) FROM D")
        assert err.value.breakpoint_info.n_files > 2

    def test_abort_leaves_cheap_queries_alone(self, ali_db, tiny_repo, query1):
        executor = TwoStageExecutor(
            ali_db,
            RepositoryBinding(tiny_repo),
            destiny=AbortAboveCost(max_files=2),
        )
        outcome = executor.execute(query1)
        assert outcome.breakpoint.decision.action.value == "proceed"

    def test_limit_policy_gives_approximate_answer(self, ali_db, tiny_repo):
        executor = TwoStageExecutor(
            ali_db,
            RepositoryBinding(tiny_repo),
            destiny=LimitFilesAboveCost(max_files=2, keep_files=1),
        )
        outcome = executor.execute("SELECT COUNT(*) FROM D")
        assert outcome.approximate
        assert outcome.result.trace.counters["files_mounted"] == 1


class TestExplain:
    def test_explain_marks_qf(self, executor, query1):
        assert "[Qf]" in executor.explain(query1)

    def test_invalid_strategy_rejected(self, ali_db, tiny_repo):
        with pytest.raises(ValueError):
            TwoStageExecutor(
                ali_db, RepositoryBinding(tiny_repo), strategy="magic"
            )


class TestMultipleActualScans:
    def test_self_join_of_actual_table(
        self, ei_db, executor, tiny_repo, engine, monkeypatch
    ):
        """Two scans of D in one query: each gets its own files of interest
        and rule (1) rewrite; d2's join partner is d1 (not Qf), so it falls
        back to all candidate files, filtered by the equi-join. Mounted
        inline, each alias extracts a shared file under its own request, and
        the trace counts the bytes of both extractions; served, both aliases
        take one extraction under the hull, counted once."""
        extract, extracted = MountService._extract, []

        def recording(self, uri, *args, **kwargs):
            extracted.append((uri, extract(self, uri, *args, **kwargs)))
            return extracted[-1][1]

        monkeypatch.setattr(MountService, "_extract", recording)
        sql = (
            "SELECT COUNT(*) "
            "FROM F JOIN D d1 ON F.uri = d1.uri "
            "JOIN D d2 ON d1.uri = d2.uri AND d1.sample_time = d2.sample_time "
            "WHERE F.station = 'ISK' AND F.channel = 'BHE' "
            "AND d1.sample_time > '2010-01-10T10:00:00' "
            "AND d1.sample_time < '2010-01-10T11:00:00'"
        )
        expected = ei_db.execute(sql).rows()
        outcome = executor.execute(sql)
        assert outcome.rows == expected
        assert len(outcome.breakpoint.files_by_alias) == 2
        # d1 is linked to the metadata branch (both ISK/BHE day-files
        # qualify — no day predicate reaches the metadata), d2 is not.
        files = outcome.breakpoint.files_by_alias
        assert len(files["d1"]) == 2
        shared = set(files["d1"]) & set(files["d2"])
        for runner, copies in ((executor, 2), (engine(tiny_repo, 2), 1)):
            extracted.clear()
            outcome = runner.execute(sql)
            assert outcome.rows == expected
            uris = [uri for uri, _ in extracted]
            assert shared and {uris.count(uri) for uri in shared} == {copies}
            assert outcome.trace.counters["bytes_read"] == sum(
                result.bytes_read for _, result in extracted
            )

    def test_two_windows_compared(self, ei_db, executor):
        """An exploration-style comparison query: the same channel's values
        at two different times (pure actual-data self-join)."""
        sql = (
            "SELECT COUNT(*) FROM D d1 JOIN D d2 "
            "ON d1.uri = d2.uri AND d1.record_id = d2.record_id "
            "WHERE d1.sample_time > '2010-01-10T10:00:00' "
            "AND d1.sample_time < '2010-01-10T10:05:00' "
            "AND d2.sample_time > '2010-01-10T10:00:00' "
            "AND d2.sample_time < '2010-01-10T10:05:00' "
            "AND d1.sample_value < d2.sample_value"
        )
        assert executor.execute(sql).rows == ei_db.execute(sql).rows()


@pytest.mark.locktrace
class TestReentrancy:
    """One engine, six queries at once, each under a context of its own:
    three degrade around corrupted files, one is truncated by its byte
    budget, one is cancelled mid-mount, one terminates its Top-N early.
    Nothing one query owns — policy, quarantine, failure report, ledger,
    token — shows up in another's result. The engine is a standalone
    executor (``workers`` 1) or a query service with 4 scheduler workers,
    each query its own tenant; either answers as a lone executor does."""

    ROUNDS = 4

    @staticmethod
    def _count(where):
        return (
            "SELECT COUNT(*), AVG(D.sample_value) "
            f"FROM F JOIN D ON F.uri = D.uri WHERE {where}"
        )

    @pytest.fixture()
    def damaged_repo(self, tmp_path, tiny_spec):
        """The tiny repository with two files corrupted (one Steim frame
        each); returns (repository, the two URIs)."""
        generate_repository(tmp_path, tiny_spec)
        repo = FileRepository(tmp_path)
        db = Database()
        lazy_ingest_metadata(db, repo)
        by_series = {
            (station, channel): uri
            for uri, station, channel in db.execute(
                "SELECT uri, station, channel FROM F ORDER BY uri DESC"
            ).rows()
        }  # the first day's file of each series
        corrupted = [by_series["ISK", "BHE"], by_series["ANK", "BHZ"]]
        for uri in corrupted:
            path = repo.path_of(uri)
            raw = bytearray(path.read_bytes())
            raw[100] ^= 0xFF
            path.write_bytes(bytes(raw))
        return repo, corrupted, by_series

    @pytest.mark.parametrize("workers", [1, 4])
    def test_six_queries_at_once_equal_the_same_queries_alone(
        self, damaged_repo, workers, engine
    ):
        repo, (bad_isk, bad_ank), by_series = damaged_repo
        lone_file = by_series["ISK", "BHZ"]
        stalled = by_series["ANK", "BHE"]
        token = CancellationToken()
        # name -> (sql, open_context kwargs); each touches its own files.
        cases = {
            "skip-isk-bhe": (
                self._count("F.station = 'ISK' AND F.channel = 'BHE'"),
                {"on_mount_error": "skip"},
            ),
            "skip-ank-bhz": (
                self._count("F.station = 'ANK' AND F.channel = 'BHZ'"),
                {"on_mount_error": "skip"},
            ),
            "skip-isk": (
                self._count("F.station = 'ISK'"),
                {"on_mount_error": "skip"},
            ),
            "budget": (
                self._count(f"F.uri = '{lone_file}'"),
                {
                    "budget": QueryBudget(
                        max_mount_bytes=repo.path_of(lone_file).stat().st_size - 1,
                        on_budget=ON_BUDGET_PARTIAL,
                    )
                },
            ),
            "top-n": (
                "SELECT D.sample_time, D.sample_value "
                "FROM F JOIN D ON F.uri = D.uri "
                "WHERE F.station = 'ISK' AND F.channel = 'BHZ' "
                "ORDER BY D.sample_time LIMIT 5",
                {},
            ),
        }
        cancelled_sql = self._count("F.station = 'ANK' AND F.channel = 'BHE'")

        def run(executor, name):
            sql, kwargs = cases[name]
            if isinstance(executor, QueryService):
                policy = kwargs.get("on_mount_error", "fail")
                executor.register_tenant(name, TenantPolicy(on_mount_error=policy))
                return executor.execute(
                    sql, tenant=name, budget=kwargs.get("budget")
                )
            return executor.execute(sql, context=executor.open_context(**kwargs))

        alone = {}
        expected_stats = {"skipped_mounts": 0, "early_terminated_branches": 0}
        for name in cases:
            reference = engine(repo)
            alone[name] = run(reference, name)
            for counter in expected_stats:
                expected_stats[counter] += (
                    self.ROUNDS * reference.totals()[counter]
                )
        assert alone["skip-isk-bhe"].mount_failures.uris() == [bad_isk]
        assert alone["skip-ank-bhz"].mount_failures.uris() == [bad_ank]
        assert alone["budget"].truncation.bytes_mounted == repo.path_of(lone_file).stat().st_size
        assert expected_stats["early_terminated_branches"] > 0

        shared = engine(repo, workers)
        results = {name: [] for name in cases}
        errors = {}
        barrier = threading.Barrier(len(cases) + 1)

        def worker(name):
            try:
                barrier.wait(10.0)
                for _ in range(self.ROUNDS):
                    results[name].append(run(shared, name))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors[name] = exc

        def cancelled_worker():
            try:
                barrier.wait(10.0)
                shared.execute(cancelled_sql, cancellation=token)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors["cancelled"] = exc

        threads = [
            threading.Thread(target=worker, args=(name,)) for name in cases
        ] + [threading.Thread(target=cancelled_worker)]
        # The cancelled query's file stalls until its token fires; nobody
        # else reads that file.
        plan = FaultPlan(
            [
                FaultSpec(
                    uri_suffix=stalled,
                    kind=READ_LATENCY,
                    times=-1,
                    delay_seconds=30.0,
                )
            ],
            interrupt=token,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with plan.install():
                for thread in threads:
                    thread.start()
                threading.Timer(0.1, token.cancel, args=("ctrl-c",)).start()
                for thread in threads:
                    thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert isinstance(errors.pop("cancelled"), QueryCancelledError)
        assert not errors, errors
        for name, outcomes in results.items():
            assert len(outcomes) == self.ROUNDS
            for outcome in outcomes:
                assert outcome.rows == alone[name].rows, name
                assert (
                    outcome.mount_failures.uris()
                    == alone[name].mount_failures.uris()
                ), name
                lone, served = alone[name].truncation, outcome.truncation
                assert (lone is None) == (served is None), name
                if lone is not None:
                    assert (
                        served.bytes_mounted,
                        served.records_decoded,
                        served.mounts_completed,
                        served.mounts_truncated,
                    ) == (
                        lone.bytes_mounted,
                        lone.records_decoded,
                        lone.mounts_completed,
                        lone.mounts_truncated,
                    )
        # Counters only these five queries touch: a lost update shows.
        totals = getattr(shared, "_executor", shared).totals()
        for counter, expected in expected_stats.items():
            assert totals[counter] == expected, counter


class TestHandedInContext:
    """``execute(context=...)`` takes the whole query from the context: it
    refuses one that cannot run a query, or a second budget / token beside
    it, with a typed error instead of ignoring either."""

    def test_context_excludes_budget_and_cancellation(self, executor, query1):
        context = executor.open_context()
        for extra in (
            {"budget": QueryBudget(max_mount_bytes=1)},
            {"cancellation": CancellationToken()},
        ):
            with pytest.raises(ValueError, match="not both"):
                executor.execute(query1, context=context, **extra)
        assert executor.execute(query1, context=context).rows

    def test_context_needs_a_governor(self, executor, query1):
        with pytest.raises(ValueError, match="needs a governor"):
            executor.execute(query1, context=MountContext())




class TestInlineMounting:
    """A standalone execution mounts each branch inline, on the querying
    thread: whatever its shape, it builds no scheduler and starts no
    thread. Parallel extraction is a query service's."""

    @pytest.mark.parametrize("shape", ["bulk", "per-file", "top-n", "multi"])
    def test_a_standalone_query_builds_no_scheduler_and_starts_no_thread(
        self, shape, fresh_ali_db, tiny_repo, monkeypatch
    ):
        monkeypatch.setattr(MountScheduler, "__init__", None)  # raises
        extract, during = MountService._extract, []

        def slow(self, *args, **kwargs):
            threading.Event().wait(0.01)
            during.append((threading.get_ident(), set(threading.enumerate())))
            return extract(self, *args, **kwargs)

        monkeypatch.setattr(MountService, "_extract", slow)
        strategy = PER_FILE if shape == "per-file" else "bulk"
        executor = TwoStageExecutor(fresh_ali_db, RepositoryBinding(tiny_repo), strategy=strategy)
        sql = "SELECT COUNT(*), MAX(D.sample_value) FROM F JOIN D ON F.uri = D.uri"
        if shape == "top-n":
            sql = "SELECT D.sample_value FROM D ORDER BY D.sample_time LIMIT 5"
        if shape == "multi":
            executor = MultiStageExecutor(executor, batch_files=1)
        before = set(threading.enumerate())
        outcome = executor.execute(sql)
        assert set(threading.enumerate()) == before
        assert len(during) == outcome.result.trace.counters["files_mounted"] > 0
        assert {ident for ident, _ in during} == {threading.get_ident()}
        assert all(threads == before for _, threads in during)


def test_a_standalone_executor_refuses_parallel_mount_workers(ali_db, tiny_repo):
    with pytest.raises(ValueError, match="QueryService"):
        TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo), mount_workers=2)
