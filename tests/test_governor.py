"""The query governor: deadlines, budgets, cancellation, retries — and the
one circuit, a remote endpoint's.

The headline guarantee: a query with a 50ms deadline against a corpus whose
mounts stall for seconds comes back in well under 200ms — raising under
``on_budget="raise"``, or returning tuples-so-far with a
:class:`TruncationReport` under ``"partial"`` — with every pool worker
joined. Cancellation latency is bounded by event wake-ups, not by sleeps.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import replace

import pytest

from repro.core import (
    CancellationToken,
    ON_BUDGET_PARTIAL,
    QueryBudget,
    TwoStageExecutor,
)
from repro.core.governor import (
    QueryGovernor,
    RetryBudget,
    RetryLadder,
    RetryPolicy,
)
from repro.core import mounting
from repro.db import Database
from repro.db.errors import (
    CircuitOpenError,
    CorruptFileError,
    FileIngestError,
    QueryBudgetExceeded,
    QueryCancelledError,
    QueryInterruptedError,
)
from repro.explore import ExplorationSession
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository, RepositorySpec, generate_repository
from repro.remote.transport import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CircuitBreaker,
    TransportPolicy,
)
from repro.testing import (
    READ_LATENCY,
    TRANSIENT_OSERROR,
    FaultPlan,
    FaultSpec,
)


SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE", "BHZ"),
    days=2,
    sample_rate=0.02,
    samples_per_record=500,
)

COUNT_SQL = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri"


@pytest.fixture(scope="module")
def repo(tmp_path_factory):
    root = tmp_path_factory.mktemp("governor_repo")
    generate_repository(root, SPEC)
    return FileRepository(root)


def _executor(repo, workers=1, **kwargs):
    """A standalone executor, which mounts inline: ``workers`` is 1 (more
    workers are a query service's, built by the ``engine`` fixture)."""
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(db, RepositoryBinding(repo), **kwargs)


def _slow_plan(repo, token, delay=0.5):
    """Every read of every file stalls ``delay`` seconds — but the stall
    waits on the query's token, so a deadline wakes it immediately."""
    return FaultPlan(
        [
            FaultSpec(
                uri_suffix=uri,
                kind=READ_LATENCY,
                times=-1,
                delay_seconds=delay,
            )
            for uri in repo.uris()
        ],
        interrupt=token,
    )


# -- budget validation -----------------------------------------------------------


class TestQueryBudget:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            QueryBudget(on_budget="shrug")

    @pytest.mark.parametrize("field,value", [
        ("deadline_seconds", 0.0),
        ("deadline_seconds", -1.0),
        ("deadline_seconds", math.nan),
        ("deadline_seconds", math.inf),
        ("max_mount_bytes", 0),
        ("max_decoded_records", -5),
    ])
    def test_non_positive_limits_rejected(self, field, value):
        with pytest.raises(ValueError):
            QueryBudget(**{field: value})



# -- cancellation token ----------------------------------------------------------


class TestCancellationToken:
    def test_cancel_is_a_latch(self):
        token = CancellationToken()
        assert not token.fired
        token.cancel("user hit ctrl-c")
        token.expire("too late, already cancelled")
        assert token.fired
        assert token.reason == "user hit ctrl-c"
        with pytest.raises(QueryCancelledError):
            token.raise_if_interrupted()

    def test_expire_means_budget_exceeded(self):
        token = CancellationToken()
        token.expire("deadline")
        with pytest.raises(QueryBudgetExceeded):
            token.raise_if_interrupted()

    def test_interruptions_are_not_ingest_errors(self):
        # QueryInterruptedError must never enter the skip/quarantine path.
        from repro.db.errors import IngestError

        assert not issubclass(QueryInterruptedError, IngestError)
        assert issubclass(QueryCancelledError, QueryInterruptedError)
        assert issubclass(QueryBudgetExceeded, QueryInterruptedError)

    def test_wait_wakes_on_fire(self):
        token = CancellationToken()
        threading.Timer(0.05, token.cancel).start()
        started = time.perf_counter()
        assert token.wait(5.0)
        assert time.perf_counter() - started < 1.0

    def test_on_cancel_runs_immediately_when_already_fired(self):
        token = CancellationToken()
        token.cancel()
        ran = []
        token.on_cancel(lambda: ran.append(True))
        assert ran == [True]


# -- deadlines -------------------------------------------------------------------


class TestDeadline:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_deadline_beats_slow_mounts_raise_mode(self, repo, workers, engine):
        executor = engine(repo, workers)
        token = CancellationToken()
        plan = _slow_plan(repo, token, delay=0.5)
        budget = QueryBudget(deadline_seconds=0.05)
        started = time.perf_counter()
        with plan.install():
            with pytest.raises(QueryBudgetExceeded):
                executor.execute(COUNT_SQL, budget=budget, cancellation=token)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.2, f"deadline overran: {elapsed:.3f}s"

    def test_deadline_partial_mode_returns_truncation_report(
        self, repo, engine
    ):
        executor = engine(repo, 4)
        token = CancellationToken()
        plan = _slow_plan(repo, token, delay=0.5)
        budget = QueryBudget(
            deadline_seconds=0.05, on_budget=ON_BUDGET_PARTIAL
        )
        started = time.perf_counter()
        with plan.install():
            outcome = executor.execute(
                COUNT_SQL, budget=budget, cancellation=token
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, f"partial deadline overran: {elapsed:.3f}s"
        assert outcome.truncation is not None
        assert "deadline" in outcome.truncation.reason
        assert outcome.truncation.mounts_truncated >= 1
        assert len(outcome.rows) == 1  # the aggregate still answers

    def test_engine_recovers_after_deadline(self, repo, engine):
        executor = engine(repo, 4)
        token = CancellationToken()
        plan = _slow_plan(repo, token, delay=0.5)
        with plan.install():
            with pytest.raises(QueryBudgetExceeded):
                executor.execute(
                    COUNT_SQL,
                    budget=QueryBudget(deadline_seconds=0.05),
                    cancellation=token,
                )
        # No faults, no budget: the same executor answers normally.
        baseline = _executor(repo).execute(COUNT_SQL).rows
        assert executor.execute(COUNT_SQL).rows == baseline


# -- cancellation ----------------------------------------------------------------


class TestCancellation:
    def test_cancel_during_retry_backoff_returns_promptly(
        self, repo, monkeypatch
    ):
        """Regression: backoff used to be time.sleep — a cancel mid-ladder
        slept out the whole backoff. It must now return within one poll
        interval."""
        executor = _executor(repo, workers=1)
        monkeypatch.setattr(mounting, "RESTARTS", RetryLadder(RetryPolicy(
            max_attempts=4, backoff_seconds=5.0  # would dominate if slept
        )))
        victim = repo.uris()[0]
        plan = FaultPlan(
            [FaultSpec(uri_suffix=victim, kind=TRANSIENT_OSERROR, times=-1)]
        )
        threading.Timer(0.15, executor.cancel).start()
        started = time.perf_counter()
        with plan.install():
            with pytest.raises(QueryCancelledError):
                executor.execute(COUNT_SQL)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"cancel slept out the backoff: {elapsed:.3f}s"

    def test_cancel_from_another_thread_mid_mount(self, repo):
        executor = _executor(repo)
        token = CancellationToken()
        plan = _slow_plan(repo, token, delay=0.5)
        cancelled = []
        threading.Timer(
            0.05, lambda: cancelled.append(executor.cancel())
        ).start()
        started = time.perf_counter()
        with plan.install():
            with pytest.raises(QueryCancelledError):
                executor.execute(COUNT_SQL, cancellation=token)
        assert time.perf_counter() - started < 1.0
        assert cancelled == [True]

    def test_cancel_when_idle_returns_false(self, repo):
        assert _executor(repo).cancel() is False


# -- byte / record budgets -------------------------------------------------------


class TestResourceBudgets:
    def test_byte_budget_raises(self, repo):
        executor = _executor(repo)
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            executor.execute(
                COUNT_SQL, budget=QueryBudget(max_mount_bytes=1)
            )
        report = excinfo.value.truncation
        assert report is not None
        assert report.bytes_mounted > 1
        assert report.mounts_completed >= 1

    def test_byte_budget_partial_returns_tuples_so_far(self, repo, engine):
        """Charged as consumed, in plan order: workers extracting ahead
        change neither the tuples so far nor the disclosure."""
        baseline = _executor(repo).execute(COUNT_SQL).rows[0][0]
        budget = QueryBudget(max_mount_bytes=1, on_budget=ON_BUDGET_PARTIAL)
        answers = {}
        for workers in (1, 4):
            executor = engine(repo, workers)
            outcome = executor.execute(COUNT_SQL, budget=budget)
            assert outcome.truncation is not None
            assert "byte" in outcome.truncation.reason
            assert 0 < outcome.rows[0][0] < baseline
            assert outcome.trace.counters["budget_truncated_mounts"] >= 1
            answers[workers] = (
                outcome.rows,
                replace(outcome.truncation, elapsed_seconds=0.0),
            )
        assert answers[4] == answers[1]

    def test_record_budget_trips(self, repo):
        executor = _executor(repo)
        with pytest.raises(QueryBudgetExceeded) as excinfo:
            executor.execute(
                COUNT_SQL, budget=QueryBudget(max_decoded_records=1)
            )
        assert "record" in str(excinfo.value)

    def test_session_budget_marks_truncated_entries(self, repo):
        db = Database()
        lazy_ingest_metadata(db, repo)
        engine = TwoStageExecutor(
            db,
            RepositoryBinding(repo),
            budget=QueryBudget(max_mount_bytes=1, on_budget=ON_BUDGET_PARTIAL),
        )
        session = ExplorationSession(engine)
        session.run(COUNT_SQL)
        assert session.history[0].truncated
        assert "(truncated)" in session.report()

    def test_unbudgeted_query_reports_no_truncation(self, repo):
        outcome = _executor(repo).execute(COUNT_SQL)
        assert outcome.truncation is None

    def test_governor_checkpoint_cheap_when_unbounded(self):
        governor = QueryGovernor()
        governor.checkpoint()  # must be a no-op, not a crash
        assert governor.truncation_report() is None
        governor.close()


# -- circuit breaker -------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    """The endpoint's circuit: one state machine, no key."""

    def _breaker(self, threshold=3, cooldown=30.0):
        clock = _FakeClock()
        return CircuitBreaker("seis-eu", threshold, cooldown, clock), clock

    def test_validation(self):
        with pytest.raises(ValueError):
            TransportPolicy(breaker_failures=0)
        with pytest.raises(ValueError):
            TransportPolicy(breaker_cooldown_seconds=-1)

    @pytest.mark.parametrize(
        "name", ["breaker_cooldown_seconds", "request_timeout_seconds"]
    )
    def test_non_finite_seconds_rejected(self, name):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                TransportPolicy(**{name: value})

    def test_opens_at_threshold(self):
        breaker, _ = self._breaker(threshold=3)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CIRCUIT_OPEN
        assert not breaker.allow()

    def test_success_resets_the_score(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CIRCUIT_CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 31.0
        assert breaker.allow()  # the probe
        assert breaker.state == CIRCUIT_HALF_OPEN
        assert not breaker.allow()  # only one at a time

    def test_probe_success_closes(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure()
        clock.now = 31.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CIRCUIT_OPEN
        clock.now = 60.0  # < 31 + 30: still cooling down
        assert not breaker.allow()
        clock.now = 61.5
        assert breaker.allow()

    def test_refusal_describes_the_circuit(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure(OSError("disk on fire"))
        clock.now = 10.0
        refusal = breaker.refusal("u")
        assert isinstance(refusal, CircuitOpenError)
        assert refusal.uri == "u"
        assert str(refusal) == (
            "u: endpoint 'seis-eu': circuit open after 1 failure(s) "
            "(last: OSError); probe retry in 20.0s"
        )
        assert not refusal.transient  # no retry ladder for refusals

    def test_endpoint_refusal_names_the_endpoint(self):
        breaker, _ = self._breaker(threshold=1)
        breaker.record_failure(OSError("link down"))
        refusal = breaker.refusal("remote://seis-eu/a.xseed")
        assert isinstance(refusal, CircuitOpenError)
        assert refusal.uri == "remote://seis-eu/a.xseed"
        assert refusal.endpoint == "seis-eu"
        assert "seis-eu" in str(refusal)


class TestHalfOpenProbeHammer:
    """Under concurrency, a cooled-down circuit admits exactly one probe;
    every losing thread gets a typed refusal, not a request."""

    def test_exactly_one_probe_under_concurrency(self):
        clock = _FakeClock()
        breaker = CircuitBreaker("seis-eu", 1, 30.0, clock)
        breaker.record_failure(OSError("down"))
        clock.now = 31.0  # cooled down: next allow() is the probe

        threads = 16
        barrier = threading.Barrier(threads)
        admitted = []
        refused = []
        lock = threading.Lock()

        def hammer():
            barrier.wait()
            if breaker.allow():
                with lock:
                    admitted.append(threading.get_ident())
            else:
                refusal = breaker.refusal("seis-eu")
                with lock:
                    refused.append(refusal)

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()

        assert len(admitted) == 1, "exactly one probe may pass"
        assert len(refused) == threads - 1
        assert all(isinstance(r, CircuitOpenError) for r in refused)
        assert all(r.endpoint == "seis-eu" for r in refused)
        assert breaker.state == CIRCUIT_HALF_OPEN
        # The probe's success closes the circuit for everyone.
        breaker.record_success()
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.allow()

    def test_abandoned_probe_frees_the_slot(self):
        clock = _FakeClock()
        breaker = CircuitBreaker("seis-eu", 1, 30.0, clock)
        breaker.record_failure(OSError("down"))
        clock.now = 31.0
        assert breaker.allow()  # the probe
        assert not breaker.allow()
        breaker.abandon_probe()  # no verdict: still half-open
        assert breaker.state == CIRCUIT_HALF_OPEN
        assert breaker.allow()  # the next caller probes
        assert not breaker.allow()


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(attempts=-1)

    def test_spend_until_dry(self):
        budget = RetryBudget(attempts=3)
        assert [budget.try_spend() for _ in range(4)] == [
            True, True, True, False,
        ]
        assert budget.spent() == 3
        assert budget.remaining() == 0

    def test_multi_unit_spend_is_all_or_nothing(self):
        budget = RetryBudget(attempts=3)
        assert budget.try_spend(2)
        assert not budget.try_spend(2)  # only 1 left
        assert budget.remaining() == 1
        assert budget.try_spend(1)

    def test_concurrent_spend_never_oversubscribes(self):
        budget = RetryBudget(attempts=64)
        granted = []
        lock = threading.Lock()

        def spender():
            while budget.try_spend():
                with lock:
                    granted.append(1)

        pool = [threading.Thread(target=spender) for _ in range(8)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert len(granted) == 64
        assert budget.spent() == 64


class TestRetryLadder:
    def test_validation(self):
        for bad in (
            dict(max_attempts=0),
            dict(backoff_seconds=-1.0),
            dict(backoff_multiplier=0.5),
            dict(backoff_jitter=-0.1),
            dict(retry_budget_attempts=-1),
        ):
            with pytest.raises(ValueError):
                RetryPolicy(**bad)

    @pytest.mark.parametrize(
        "name", ["backoff_seconds", "backoff_multiplier", "backoff_jitter"]
    )
    def test_non_finite_backoff_rejected(self, name):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                RetryPolicy(**{name: value})

    def test_threads_share_one_ladder(self):
        """Workers climbing one ladder at once draw its one jitter stream:
        every draw is used exactly once, none lost or repeated to a race."""
        threads, retries = 8, 3
        policy = RetryPolicy(
            max_attempts=retries + 1, backoff_seconds=0.001, jitter_seed=11
        )
        ladder = RetryLadder(policy)
        draws, errors = [], []
        lock = threading.Lock()
        barrier = threading.Barrier(threads)

        class Recording(CancellationToken):
            """Records each backoff's jitter draw; never fires."""

            retries = 0

            def wait(self, timeout=None):
                self.retries += 1
                base = policy.backoff_seconds * 2 ** (self.retries - 1)
                with lock:
                    draws.append((timeout / base - 1.0) / policy.backoff_jitter)
                return False

        def climb():
            token = Recording()
            barrier.wait()

            def attempt(n):
                if n < retries:
                    raise FileIngestError("flake", transient=True)
                return n

            try:
                ladder.run(attempt, token=token, retryable=lambda e: True)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        pool = [threading.Thread(target=climb) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(10.0)
            assert not thread.is_alive()
        assert errors == []
        stream = random.Random(policy.jitter_seed)
        expected = [stream.random() for _ in range(threads * retries)]
        assert sorted(draws) == pytest.approx(sorted(expected))


class TestAFailingFileIsJudgedPerQuery:
    """No circuit scores a file across queries: every query reads a failing
    file afresh and meets the file's own error."""

    def test_a_corrupt_file_fails_every_query_with_its_own_error(
        self, tmp_path
    ):
        generate_repository(tmp_path, SPEC)
        local = FileRepository(tmp_path)
        executor = _executor(local)
        victim = local.uris()[0]
        path = local.path_of(victim)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF  # the first record's magic
        path.write_bytes(bytes(raw))
        for _ in range(4):
            with pytest.raises(CorruptFileError) as excinfo:
                executor.execute(COUNT_SQL)
            assert excinfo.value.uri == victim
        for _ in range(4):
            outcome = executor.execute(
                COUNT_SQL, context=executor.open_context(on_mount_error="skip")
            )
            [failure] = outcome.mount_failures.failures
            assert (failure.uri, failure.error) == (victim, "CorruptFileError")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_failed_querys_restarts_reach_the_totals(
        self, repo, workers, engine
    ):
        """Transient local I/O on every read: the mount layer restarts the
        extraction twice, and the query that raised counts both."""
        executor = engine(repo, workers)
        victim = repo.uris()[0]
        plan = FaultPlan(
            [FaultSpec(uri_suffix=victim, kind=TRANSIENT_OSERROR, times=-1)]
        )
        with plan.install(), pytest.raises(FileIngestError) as excinfo:
            executor.execute(COUNT_SQL)
        assert excinfo.value.mount_uri == victim
        executor = getattr(executor, "_executor", executor)  # a service's
        assert executor.totals()["restarts"] == 2
