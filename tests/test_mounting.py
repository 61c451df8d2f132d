"""Tests for the mount service and interval extraction."""

import os
import random
import threading

import numpy as np
import pytest

from repro.core import (
    FAIL_FAST,
    SKIP_AND_REPORT,
    CacheGranularity,
    CachePolicy,
    CancellationToken,
    IngestionCache,
    MountContext,
    MountService,
    QueryGovernor,
    interval_from_predicate,
)
from repro.core.cache import INF
from repro.core.governor import RetryLadder, RetryPolicy
from repro.core.mounting import restartable
from repro.db.buffer import BufferManager
from repro.db.errors import FileIngestError, IngestError, StaleFileError
from repro.db.expr import BoolOp, ColumnRef, Comparison, Literal
from repro.db.types import DataType
from repro.ingest import RepositoryBinding
from repro.ingest.xseed_format import XSeedExtractor
from repro.mseed import FileRepository, generate_repository, read_records


def time_ref():
    return ColumnRef("d.sample_time", DataType.TIMESTAMP)


def ts_literal(micros):
    return Literal(micros, DataType.TIMESTAMP)


class TestIntervalExtraction:
    def test_no_predicate(self):
        assert interval_from_predicate(None, "d.sample_time") == (-INF, INF)

    def test_range_conjuncts(self):
        predicate = BoolOp(
            "and",
            [
                Comparison(">", time_ref(), ts_literal(100)),
                Comparison("<=", time_ref(), ts_literal(500)),
            ],
        )
        assert interval_from_predicate(predicate, "d.sample_time") == (100, 500)

    def test_mirrored_comparison(self):
        predicate = Comparison("<", ts_literal(100), time_ref())
        assert interval_from_predicate(predicate, "d.sample_time") == (100, INF)

    def test_equality_pins_both_sides(self):
        predicate = Comparison("=", time_ref(), ts_literal(42))
        assert interval_from_predicate(predicate, "d.sample_time") == (42, 42)

    def test_other_columns_ignored(self):
        other = Comparison(
            ">", ColumnRef("d.sample_value", DataType.FLOAT64), Literal.infer(1.0)
        )
        assert interval_from_predicate(other, "d.sample_time") == (-INF, INF)

    def test_tightest_bounds_win(self):
        predicate = BoolOp(
            "and",
            [
                Comparison(">", time_ref(), ts_literal(10)),
                Comparison(">", time_ref(), ts_literal(50)),
                Comparison("<", time_ref(), ts_literal(900)),
                Comparison("<", time_ref(), ts_literal(700)),
            ],
        )
        assert interval_from_predicate(predicate, "d.sample_time") == (50, 700)

    def test_or_of_ranges_stays_unbounded(self):
        """An OR is not a conjunct: neither disjunct may narrow the hull
        (each alone would wrongly exclude the other's rows)."""
        predicate = BoolOp(
            "or",
            [
                Comparison("<", time_ref(), ts_literal(100)),
                Comparison(">", time_ref(), ts_literal(500)),
            ],
        )
        assert interval_from_predicate(predicate, "d.sample_time") == (
            -INF, INF,
        )

    def test_or_under_and_only_sibling_conjuncts_narrow(self):
        disjunction = BoolOp(
            "or",
            [
                Comparison("<", time_ref(), ts_literal(100)),
                Comparison(">", time_ref(), ts_literal(500)),
            ],
        )
        predicate = BoolOp(
            "and",
            [disjunction, Comparison("<=", time_ref(), ts_literal(900))],
        )
        assert interval_from_predicate(predicate, "d.sample_time") == (
            -INF, 900,
        )

    def test_equality_on_non_timestamp_column_ignored(self):
        """``=`` on a non-TIMESTAMP column must not pin the interval — only
        TIMESTAMP bounds on the time key itself license record pruning.
        (The expr layer already rejects `time = <int64 literal>` outright,
        so the non-TIMESTAMP guard is exercised via other columns.)"""
        predicate = BoolOp(
            "and",
            [
                Comparison(
                    "=",
                    ColumnRef("d.record_id", DataType.INT64),
                    Literal.infer(42),
                ),
                Comparison(
                    "=",
                    ColumnRef("d.station", DataType.STRING),
                    Literal.infer("ISK"),
                ),
            ],
        )
        assert interval_from_predicate(predicate, "d.sample_time") == (
            -INF, INF,
        )

    def test_time_to_time_comparison_ignored(self):
        """A column-to-column comparison carries no literal bound."""
        predicate = Comparison(
            ">", time_ref(), ColumnRef("d.other_time", DataType.TIMESTAMP)
        )
        assert interval_from_predicate(predicate, "d.sample_time") == (
            -INF, INF,
        )

    def test_contradictory_conjuncts_yield_empty_interval(self):
        predicate = BoolOp(
            "and",
            [
                Comparison(">", time_ref(), ts_literal(500)),
                Comparison("<", time_ref(), ts_literal(100)),
            ],
        )
        lo, hi = interval_from_predicate(predicate, "d.sample_time")
        assert lo > hi  # empty: the branch can produce no rows

    def test_empty_interval_short_circuits_without_touching_disk(
        self, scratch_repo
    ):
        """A contradictory fused predicate answers empty even when the file
        is gone from disk — proof the branch never opened it."""
        service = MountService(
            RepositoryBinding(scratch_repo),
            IngestionCache(CachePolicy.UNBOUNDED),
        )
        uri = scratch_repo.uris()[0]
        scratch_repo.path_of(uri).unlink()
        predicate = BoolOp(
            "and",
            [
                Comparison(">", time_ref(), ts_literal(500)),
                Comparison("<", time_ref(), ts_literal(100)),
            ],
        )
        context = MountContext()
        batch = service.mount_file(uri, "D", "d", predicate, context)
        assert batch.num_rows == 0
        assert context.trace.counters == {"empty_interval_skips": 1}


@pytest.fixture()
def service(tiny_repo):
    return MountService(
        RepositoryBinding(tiny_repo),
        IngestionCache(CachePolicy.UNBOUNDED),
    )


@pytest.fixture()
def scratch_repo(tmp_path, tiny_spec):
    """A throwaway copy of the tiny repository for tests that damage files
    (the session-scoped tiny_repo is read-only by contract)."""
    generate_repository(tmp_path, tiny_spec)
    return FileRepository(tmp_path)


class TestMountFile:
    def test_mount_matches_direct_read(self, tiny_repo, service):
        uri = tiny_repo.uris()[0]
        batch = service.mount_file(uri, "D", "d", None)
        records = read_records(tiny_repo.path_of(uri))
        expected = np.concatenate([r.samples for r in records])
        assert np.array_equal(
            batch.column("d.sample_value").values, expected.astype(np.float64)
        )
        assert batch.names == [
            "d.uri", "d.record_id", "d.sample_time", "d.sample_value",
        ]

    def test_predicate_fused(self, tiny_repo, service):
        uri = tiny_repo.uris()[0]
        full = service.mount_file(uri, "D", "d", None)
        times = full.column("d.sample_time").values
        lo, hi = int(times[10]), int(times[50])
        predicate = BoolOp(
            "and",
            [
                Comparison(">=", time_ref(), ts_literal(lo)),
                Comparison("<=", time_ref(), ts_literal(hi)),
            ],
        )
        filtered = service.mount_file(uri, "D", "d", predicate)
        assert filtered.num_rows == 41

    def test_stats_updated(self, tiny_repo, service):
        uri = tiny_repo.uris()[0]
        context = MountContext()
        batch = service.mount_file(uri, "D", "d", None, context)
        counters = context.trace.counters
        assert counters["files_mounted"] == 1
        assert counters["tuples_mounted"] == batch.num_rows > 0
        assert counters["bytes_read"] == tiny_repo.path_of(uri).stat().st_size

    def test_unknown_table_rejected(self, service):
        with pytest.raises(IngestError):
            service.mount_file("any", "NOT_BOUND", "x", None)

    def test_callbacks_see_canonical_batch(self, tiny_repo, service):
        seen = {}

        def callback(uri, batch):
            seen[uri] = batch.names

        service.add_mount_callback(callback)
        uri = tiny_repo.uris()[0]
        service.mount_file(uri, "D", "d", None)
        assert seen[uri] == ["uri", "record_id", "sample_time", "sample_value"]


class TestCacheScan:
    def test_cache_scan_after_mount(self, tiny_repo, service):
        uri = tiny_repo.uris()[0]
        context = MountContext()
        mounted = service.mount_file(uri, "D", "d", None, context)
        cached = service.cache_scan(uri, "D", "d", None, context)
        assert cached.num_rows == mounted.num_rows
        assert context.trace.counters["cache_scans"] == 1
        assert context.trace.counters["files_mounted"] == 1

    def test_cache_scan_falls_back_to_mount(self, tiny_repo, service):
        uri = tiny_repo.uris()[0]
        context = MountContext()
        result = service.cache_scan(uri, "D", "d", None, context)
        assert result.num_rows > 0
        counters = context.trace.counters
        assert counters["fallback_mounts"] == counters["files_mounted"] == 1
        assert counters["cache_scans"] == 0

    def test_discard_policy_never_caches(self, tiny_repo):
        service = MountService(
            RepositoryBinding(tiny_repo),
            IngestionCache(CachePolicy.DISCARD),
        )
        uri = tiny_repo.uris()[0]
        service.mount_file(uri, "D", "d", None)
        assert not service.cache.contains(uri)


class TestTupleGranularMounting:
    def test_interval_stored_not_full_file(self, tiny_repo):
        service = MountService(
            RepositoryBinding(tiny_repo),
            IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE),
        )
        uri = tiny_repo.uris()[0]
        probe = service.mount_file(uri, "D", "d", None)
        times = probe.column("d.sample_time").values
        lo, hi = int(times[0]), int(times[99])
        predicate = BoolOp(
            "and",
            [
                Comparison(">=", time_ref(), ts_literal(lo)),
                Comparison("<=", time_ref(), ts_literal(hi)),
            ],
        )
        service.cache.clear()
        service.mount_file(uri, "D", "d", predicate)
        assert service.cache.contains(uri, (lo, hi))
        assert not service.cache.contains(uri, (lo, hi + 10**12))
        entry = service.cache.lookup(uri, (lo, hi))
        assert entry.num_rows == 100  # only the interval's tuples retained

    def test_value_predicates_not_baked_into_cache(self, tiny_repo):
        """Non-time conjuncts must not narrow what the cache stores."""
        service = MountService(
            RepositoryBinding(tiny_repo),
            IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE),
        )
        uri = tiny_repo.uris()[0]
        probe = service.mount_file(uri, "D", "d", None)
        times = probe.column("d.sample_time").values
        lo, hi = int(times[0]), int(times[99])
        value_pred = Comparison(
            ">",
            ColumnRef("d.sample_value", DataType.FLOAT64),
            Literal.infer(10.0 ** 9),  # matches nothing
        )
        predicate = BoolOp(
            "and",
            [
                Comparison(">=", time_ref(), ts_literal(lo)),
                Comparison("<=", time_ref(), ts_literal(hi)),
                value_pred,
            ],
        )
        service.cache.clear()
        delivered = service.mount_file(uri, "D", "d", predicate)
        assert delivered.num_rows == 0  # value predicate filtered delivery
        cached = service.cache.lookup(uri, (lo, hi))
        assert cached.num_rows == 100  # but the cache kept the full interval


class FlakyExtractor:
    """Delegates to XSeedExtractor after failing ``fail_times`` transiently."""

    format_name = "flaky-xseed"
    suffix = ".xseed"

    def __init__(self, fail_times=2, transient=True, endpoint=None):
        self.fail_times = fail_times
        self.transient = transient
        self.endpoint = endpoint
        self.mount_calls = 0
        self._inner = XSeedExtractor()

    def extract_metadata(self, path, uri):
        return self._inner.extract_metadata(path, uri)

    def mount(self, path, uri):
        self.mount_calls += 1
        if self.mount_calls <= self.fail_times:
            raise FileIngestError(
                "injected flake",
                uri=uri,
                transient=self.transient,
                endpoint=self.endpoint,
            )
        return self._inner.mount(path, uri)


def _flaky_service(tiny_repo, extractor):
    from repro.ingest.formats import FormatRegistry

    registry = FormatRegistry()
    registry.register(extractor)
    return MountService(
        RepositoryBinding(tiny_repo, registry=registry),
        IngestionCache(CachePolicy.DISCARD),
    )


class TestRetry:
    """The mount layer restarts an extraction (three attempts) for what no
    request can repeat: transient local I/O and a stale file."""

    def test_transient_failure_retried_to_success(self, tiny_repo):
        extractor = FlakyExtractor(fail_times=2)
        service = _flaky_service(tiny_repo, extractor)
        uri = tiny_repo.uris()[0]
        context = MountContext()
        batch = service.mount_file(uri, "D", "d", None, context)
        assert batch.num_rows > 0
        assert extractor.mount_calls == 3
        assert context.trace.counters["restarts"] == 2

    def test_retries_exhausted_raises_with_count(self, tiny_repo):
        extractor = FlakyExtractor(fail_times=100)
        service = _flaky_service(tiny_repo, extractor)
        uri = tiny_repo.uris()[0]
        with pytest.raises(FileIngestError) as excinfo:
            service.mount_file(uri, "D", "d", None)
        assert extractor.mount_calls == 3  # initial try + 2 retries
        assert excinfo.value.retries == 2
        assert excinfo.value.uri == uri

    def test_non_transient_failure_not_retried(self, tiny_repo):
        extractor = FlakyExtractor(fail_times=100, transient=False)
        service = _flaky_service(tiny_repo, extractor)
        with pytest.raises(FileIngestError) as excinfo:
            service.mount_file(tiny_repo.uris()[0], "D", "d", None)
        assert extractor.mount_calls == 1
        assert excinfo.value.retries == 0

    def test_a_failure_with_an_endpoint_is_not_restarted(self, tiny_repo):
        """A transient failure that names an endpoint came out of a
        transport, whose ladder already repeated the request."""
        extractor = FlakyExtractor(fail_times=100, endpoint="seis-eu")
        service = _flaky_service(tiny_repo, extractor)
        with pytest.raises(FileIngestError) as excinfo:
            service.mount_file(tiny_repo.uris()[0], "D", "d", None)
        assert extractor.mount_calls == 1
        assert excinfo.value.retries == 0


class _BackoffRecordingToken(CancellationToken):
    """A live token whose timed waits are recorded and return instantly."""

    def __init__(self):
        super().__init__()
        self.waits = []

    def wait(self, timeout=None):
        if timeout is not None:
            self.waits.append(timeout)
            return False
        return super().wait(timeout)


class TestRetryJitter:
    """Regression: the retry ladder's jitter is seeded, bounded, and spread.

    The transport and the mount layer climb one :class:`RetryLadder`, so
    its formula is tested once, here: the wait before retry ``k`` is
    ``backoff_seconds * backoff_multiplier ** (k - 1)``, stretched by a
    uniform draw from ``[1, 1 + backoff_jitter]``. A fleet of workers that
    all failed at the same instant must not come back at the same instant.
    """

    def _ladder(self, *, jitter, seed, fails=3):
        ladder = RetryLadder(RetryPolicy(
            max_attempts=fails + 1,
            backoff_seconds=0.01,
            backoff_jitter=jitter,
            jitter_seed=seed,
        ))
        token = _BackoffRecordingToken()
        attempts = []

        def attempt(n):
            attempts.append(n)
            if n < fails:
                raise FileIngestError("injected flake", transient=True)
            return "mounted"

        assert ladder.run(attempt, token=token, retryable=restartable) == (
            "mounted"
        )
        assert attempts == list(range(fails + 1))
        return token.waits

    def test_fixed_seed_reproduces_the_exact_jittered_ladder(self):
        waits = self._ladder(jitter=0.5, seed=42)
        rng = random.Random(42)
        expected = [
            0.01 * 2**retry * (1.0 + 0.5 * rng.random()) for retry in range(3)
        ]
        assert waits == pytest.approx(expected)

    def test_jittered_waits_stay_within_the_advertised_band(self):
        for seed in (0, 7, 20130610):
            waits = self._ladder(jitter=0.5, seed=seed)
            assert len(waits) == 3
            for retry, wait in enumerate(waits):
                base = 0.01 * 2**retry
                assert base <= wait <= base * 1.5

    def test_two_seeds_spread_apart_one_seed_replays(self):
        first = self._ladder(jitter=0.5, seed=1)
        replay = self._ladder(jitter=0.5, seed=1)
        other = self._ladder(jitter=0.5, seed=2)
        assert first == replay
        assert first != other  # distinct seeds → distinct comeback times

    def test_zero_jitter_keeps_the_exponential_ladder_exact(self):
        waits = self._ladder(jitter=0.0, seed=42)
        assert waits == pytest.approx([0.01, 0.02, 0.04])

    def test_a_failure_carries_every_retry_its_file_cost(self):
        """Three restarts of an extraction whose request retried twice each
        time cost 3 × 2 request retries plus 2 restarts."""
        inner = RetryLadder(RetryPolicy(max_attempts=3, backoff_seconds=0.0))
        outer = RetryLadder(RetryPolicy(max_attempts=3, backoff_seconds=0.0))
        token = CancellationToken()

        def request(_):
            raise FileIngestError("reset", transient=True, endpoint="seis-eu")

        def extraction(_):
            try:
                inner.run(request, token=token, retryable=lambda e: True)
            except FileIngestError as exc:
                raise StaleFileError("voided", retries=exc.retries) from exc

        with pytest.raises(StaleFileError) as excinfo:
            outer.run(extraction, token=token, retryable=restartable)
        assert excinfo.value.retries == 3 * 2 + 2


class TestSkipAndReport:
    def corrupt(self, repo, uri):
        path = repo.path_of(uri)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))

    def _service(self, repo):
        return MountService(
            RepositoryBinding(repo),
            IngestionCache(CachePolicy.DISCARD),
        )

    def test_fail_fast_raises(self, scratch_repo):
        service = self._service(scratch_repo)
        uri = scratch_repo.uris()[0]
        self.corrupt(scratch_repo, uri)
        assert MountContext().on_error == FAIL_FAST
        with pytest.raises(IngestError):
            service.mount_file(uri, "D", "d", None)

    def test_skip_returns_empty_batch_and_reports(self, scratch_repo):
        service = self._service(scratch_repo)
        context = MountContext(on_error=SKIP_AND_REPORT)
        uri = scratch_repo.uris()[0]
        self.corrupt(scratch_repo, uri)
        batch = service.mount_file(uri, "D", "d", None, context)
        assert batch.num_rows == 0
        assert batch.names == [
            "d.uri", "d.record_id", "d.sample_time", "d.sample_value",
        ]
        assert len(context.failure_report) == 1
        failure = context.failure_report.failures[0]
        assert failure.uri == uri
        assert failure.error in ("SteimError", "CorruptFileError")
        assert uri in context.failure_report.describe()
        assert context.trace.counters["skipped_mounts"] == 1

    def test_quarantine_skips_repeat_mounts(self, scratch_repo):
        """A self-join takes the same file twice; the second take must not
        re-extract or double-report it."""
        service = self._service(scratch_repo)
        context = MountContext(on_error=SKIP_AND_REPORT)
        uri = scratch_repo.uris()[0]
        self.corrupt(scratch_repo, uri)
        service.mount_file(uri, "D", "d", None, context)
        service.mount_file(uri, "D", "d2", None, context)
        assert len(context.failure_report) == 1
        assert context.trace.counters["skipped_mounts"] == 2

    def test_fresh_context_clears_quarantine(self, scratch_repo):
        """Quarantine is per query: the next query's context starts empty,
        so the file gets a fresh chance (and fails again here)."""
        service = self._service(scratch_repo)
        uri = scratch_repo.uris()[0]
        self.corrupt(scratch_repo, uri)
        first = MountContext(on_error=SKIP_AND_REPORT)
        service.mount_file(uri, "D", "d", None, first)
        assert first.failure_report
        second = MountContext(on_error=SKIP_AND_REPORT)
        assert not second.failure_report
        assert not second.is_quarantined(uri)
        service.mount_file(uri, "D", "d", None, second)
        assert second.failure_report.uris() == [uri]
        assert len(first.failure_report) == 1  # the old report is untouched
        assert [c.trace.counters["skipped_mounts"] for c in (first, second)] == [
            1, 1,
        ]  # each query counts its own

    def test_intact_files_unaffected(self, scratch_repo):
        service = self._service(scratch_repo)
        context = MountContext(on_error=SKIP_AND_REPORT)
        bad, good = scratch_repo.uris()[0], scratch_repo.uris()[1]
        self.corrupt(scratch_repo, bad)
        assert service.mount_file(bad, "D", "d", None, context).num_rows == 0
        assert service.mount_file(good, "D", "d", None, context).num_rows > 0
        assert context.failure_report.uris() == [bad]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            MountContext(on_error="explode")


class _RestoringToken(_BackoffRecordingToken):
    """A live token whose timed waits run ``restore`` and return at once."""

    def __init__(self, restore):
        super().__init__()
        self.restore = restore

    def wait(self, timeout=None):
        if timeout is not None:
            self.restore()
        return super().wait(timeout)


class TestStaleDetection:
    def test_file_deleted_mid_extract_is_stale(self, scratch_repo):
        """Delete the file between the pre-stat and the decode, on every
        attempt (it is back each time the ladder waits): the typed
        StaleFileError (transient) surfaces, not a raw FileNotFoundError."""
        uri = scratch_repo.uris()[0]
        path = scratch_repo.path_of(uri)
        original = path.read_bytes()

        class DeletingExtractor(FlakyExtractor):
            def __init__(self):
                super().__init__(fail_times=0)

            def mount(self, path, uri):
                mounted = super().mount(path, uri)
                path.unlink()
                return mounted

        extractor = DeletingExtractor()
        service = _flaky_service(scratch_repo, extractor)
        token = _RestoringToken(lambda: path.write_bytes(original))
        context = MountContext(governor=QueryGovernor(token=token))
        with pytest.raises(StaleFileError) as excinfo:
            service.mount_file(uri, "D", "d", None, context)
        assert excinfo.value.transient
        assert (extractor.mount_calls, excinfo.value.retries) == (3, 2)

    def test_file_rewritten_mid_extract_is_stale(self, scratch_repo):
        """Rewritten during every read: each restart is voided too."""

        class RewritingExtractor(FlakyExtractor):
            def __init__(self):
                super().__init__(fail_times=0)

            def mount(self, path, uri):
                mounted = super().mount(path, uri)
                stat = path.stat()
                os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
                return mounted

        extractor = RewritingExtractor()
        service = _flaky_service(scratch_repo, extractor)
        context = MountContext()
        with pytest.raises(StaleFileError) as excinfo:
            service.mount_file(scratch_repo.uris()[0], "D", "d", None, context)
        assert (extractor.mount_calls, excinfo.value.retries) == (3, 2)
        assert context.trace.counters["restarts"] == 2


class TestConcurrentExtraction:
    """Concurrent _extract calls hammer one BufferManager, and the byte
    accounting must come out exact."""

    def test_parallel_extract_accounting(self, tiny_repo):
        service = MountService(
            RepositoryBinding(tiny_repo),
            IngestionCache(CachePolicy.DISCARD),
            buffers=BufferManager(),
        )
        uris = tiny_repo.uris()
        sizes = {u: tiny_repo.path_of(u).stat().st_size for u in uris}
        rounds = 8
        errors = []
        read = []
        barrier = threading.Barrier(4)

        def hammer(worker):
            try:
                barrier.wait(timeout=10)
                for i in range(rounds):
                    uri = uris[(worker + i) % len(uris)]
                    result = service._extract(uri, "D")
                    assert result.batch.num_rows > 0
                    read.append(result.bytes_read)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        expected = sum(
            sizes[uris[(w + i) % len(uris)]]
            for w in range(4)
            for i in range(rounds)
        )
        assert sum(read) == expected
        # Each distinct file was charged to the disk model exactly once.
        assert service.buffers.stats.objects_read == len(set(uris))
        assert service.buffers.stats.bytes_read == sum(
            sizes[u] for u in set(uris)
        )
