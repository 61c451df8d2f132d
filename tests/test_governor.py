"""The query governor: deadlines, budgets, cancellation, circuit breaking.

The headline guarantee: a query with a 50ms deadline against a corpus whose
mounts stall for seconds comes back in well under 200ms — raising under
``on_budget="raise"``, or returning tuples-so-far with a
:class:`TruncationReport` under ``"partial"`` — with every pool worker
joined. Cancellation latency is bounded by event wake-ups, not by sleeps.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import replace

import pytest

from repro.core import (
    CancellationToken,
    CircuitBreaker,
    ON_BUDGET_PARTIAL,
    QueryBudget,
    TwoStageExecutor,
)
from repro.core.governor import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    QueryGovernor,
    RetryBudget,
    RetryLadder,
    RetryPolicy,
)
from repro.core import mounting
from repro.db import Database
from repro.db.errors import (
    CircuitOpenError,
    FileIngestError,
    QueryBudgetExceeded,
    QueryCancelledError,
    QueryInterruptedError,
)
from repro.explore import ExplorationSession
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository, RepositorySpec, generate_repository
from repro.testing import (
    READ_LATENCY,
    TRANSIENT_OSERROR,
    FaultPlan,
    FaultSpec,
)

from test_mountpool import live_workers

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
    db = Database()
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(
        db, RepositoryBinding(repo), mount_workers=workers, **kwargs
    )


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


def _assert_workers_joined(timeout=2.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not live_workers():
            return
        time.sleep(0.01)
    raise AssertionError(f"mount workers leaked: {live_workers()!r}")


# -- budget validation -----------------------------------------------------------


class TestQueryBudget:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            QueryBudget(on_budget="shrug")

    @pytest.mark.parametrize("field,value", [
        ("deadline_seconds", 0.0),
        ("deadline_seconds", -1.0),
        ("max_mount_bytes", 0),
        ("max_decoded_records", -5),
    ])
    def test_non_positive_limits_rejected(self, field, value):
        with pytest.raises(ValueError):
            QueryBudget(**{field: value})

    def test_bounded(self):
        assert not QueryBudget().bounded
        assert QueryBudget(deadline_seconds=1.0).bounded
        assert QueryBudget(max_mount_bytes=1).bounded


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
    def test_deadline_beats_slow_mounts_raise_mode(self, repo, workers):
        executor = _executor(repo, workers=workers)
        token = CancellationToken()
        plan = _slow_plan(repo, token, delay=0.5)
        budget = QueryBudget(deadline_seconds=0.05)
        started = time.perf_counter()
        with plan.install():
            with pytest.raises(QueryBudgetExceeded):
                executor.execute(COUNT_SQL, budget=budget, cancellation=token)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.2, f"deadline overran: {elapsed:.3f}s"
        _assert_workers_joined()

    def test_deadline_partial_mode_returns_truncation_report(self, repo):
        executor = _executor(repo, workers=4)
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
        _assert_workers_joined()

    def test_engine_recovers_after_deadline(self, repo):
        executor = _executor(repo, workers=4)
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
        executor = _executor(repo, workers=4)
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
        _assert_workers_joined()

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

    def test_byte_budget_partial_returns_tuples_so_far(self, repo):
        """Charged as consumed, in plan order: workers extracting ahead
        change neither the tuples so far nor the disclosure."""
        baseline = _executor(repo).execute(COUNT_SQL).rows[0][0]
        budget = QueryBudget(max_mount_bytes=1, on_budget=ON_BUDGET_PARTIAL)
        answers = {}
        for workers in (1, 4):
            executor = _executor(repo, workers=workers)
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
    def _breaker(self, threshold=3, cooldown=30.0):
        clock = _FakeClock()
        return CircuitBreaker(
            failure_threshold=threshold,
            cooldown_seconds=cooldown,
            clock=clock,
        ), clock

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_seconds=-1)

    def test_opens_at_threshold(self):
        breaker, _ = self._breaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("u")
            assert breaker.allow("u")
        breaker.record_failure("u")
        assert breaker.state_of("u") == CIRCUIT_OPEN
        assert not breaker.allow("u")
        assert breaker.open_uris() == ["u"]

    def test_success_resets_the_score(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure("u")
        breaker.record_success("u")
        breaker.record_failure("u")
        assert breaker.state_of("u") == CIRCUIT_CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure("u")
        assert not breaker.allow("u")
        clock.now = 31.0
        assert breaker.allow("u")  # the probe
        assert breaker.state_of("u") == CIRCUIT_HALF_OPEN
        assert not breaker.allow("u")  # only one at a time

    def test_probe_success_closes(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure("u")
        clock.now = 31.0
        assert breaker.allow("u")
        breaker.record_success("u")
        assert breaker.state_of("u") == CIRCUIT_CLOSED
        assert breaker.allow("u")

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure("u")
        clock.now = 31.0
        assert breaker.allow("u")
        breaker.record_failure("u")
        assert breaker.state_of("u") == CIRCUIT_OPEN
        clock.now = 60.0  # < 31 + 30: still cooling down
        assert not breaker.allow("u")

    def test_likely_blocked_does_not_consume_the_probe(self):
        breaker, clock = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure("u")
        assert breaker.likely_blocked("u")
        clock.now = 31.0
        assert not breaker.likely_blocked("u")  # peek only
        assert breaker.state_of("u") == CIRCUIT_OPEN  # state untouched
        assert breaker.allow("u")  # the real probe admission

    def test_refusal_describes_the_circuit(self):
        breaker, _ = self._breaker(threshold=1, cooldown=30.0)
        breaker.record_failure("u", OSError("disk on fire"))
        refusal = breaker.refusal("u")
        assert isinstance(refusal, CircuitOpenError)
        assert refusal.uri == "u"
        assert "1 failure" in str(refusal)
        assert "OSError" in str(refusal)
        assert not refusal.transient  # no retry ladder for refusals

    def test_reset_clears_all_circuits(self):
        breaker, _ = self._breaker(threshold=1)
        breaker.record_failure("u")
        breaker.reset()
        assert breaker.allow("u")
        assert breaker.open_uris() == []

    def test_endpoint_refusal_names_the_endpoint(self):
        breaker, _ = self._breaker(threshold=1)
        breaker.record_failure("seis-eu", OSError("link down"))
        refusal = breaker.refusal(
            "remote://seis-eu/a.xseed", endpoint="seis-eu"
        )
        assert isinstance(refusal, CircuitOpenError)
        assert refusal.uri == "remote://seis-eu/a.xseed"
        assert refusal.endpoint == "seis-eu"
        assert "seis-eu" in str(refusal)


class TestBreakerRegistryBounds:
    """The circuit registry must not grow without bound (satellite: cap +
    idle expiry). One breaker can outlive millions of distinct URIs."""

    def _breaker(self, **kwargs):
        clock = _FakeClock()
        return CircuitBreaker(clock=clock, **kwargs), clock

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(max_circuits=0)
        with pytest.raises(ValueError):
            CircuitBreaker(idle_expiry_seconds=0)

    def test_idle_circuits_expire(self):
        breaker, clock = self._breaker(idle_expiry_seconds=100.0)
        breaker.record_failure("a")
        breaker.record_failure("b")
        assert len(breaker) == 2
        clock.now = 150.0
        breaker.record_failure("c")  # reap runs on the failure path
        assert len(breaker) == 1  # a and b idled out, c is fresh
        assert breaker.evictions == 2

    def test_touch_keeps_a_circuit_alive(self):
        breaker, clock = self._breaker(idle_expiry_seconds=100.0)
        breaker.record_failure("a")
        breaker.record_failure("b")
        clock.now = 90.0
        assert breaker.allow("a")  # touches a, not b
        clock.now = 150.0
        breaker.record_failure("c")
        assert len(breaker) == 2  # a survived via the touch, b expired

    def test_capacity_evicts_least_recent_closed_first(self):
        breaker, clock = self._breaker(
            max_circuits=3, failure_threshold=2, idle_expiry_seconds=1e9
        )
        clock.now = 1.0
        breaker.record_failure("open-1")
        breaker.record_failure("open-1")  # tripped: state open
        clock.now = 2.0
        breaker.record_failure("closed-old")
        clock.now = 3.0
        breaker.record_failure("closed-new")
        clock.now = 4.0
        breaker.record_failure("fresh")  # over capacity: evict one
        assert len(breaker) == 3
        # The least-recently-touched *closed* circuit goes first; open
        # circuits (known-bad endpoints) are the last thing to forget.
        assert breaker.state_of("closed-old") == CIRCUIT_CLOSED  # re-created
        assert breaker.evictions == 1
        assert not breaker.allow("open-1")  # the open circuit survived

    def test_just_failed_circuit_never_self_evicts(self):
        breaker, clock = self._breaker(max_circuits=1, idle_expiry_seconds=1e9)
        for index in range(5):
            clock.now = float(index)
            breaker.record_failure(f"u{index}")
            assert len(breaker) == 1
        # The survivor is always the most recent failure.
        breaker.record_failure("u4")
        breaker.record_failure("u4")
        assert not breaker.allow("u4")


class TestHalfOpenProbeHammer:
    """Satellite: under concurrency, a cooled-down circuit admits exactly
    one probe; every losing thread gets a typed refusal, not a request."""

    def test_exactly_one_probe_under_concurrency(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        breaker.record_failure("seis-eu", OSError("down"))
        clock.now = 31.0  # cooled down: next allow() is the probe

        threads = 16
        barrier = threading.Barrier(threads)
        admitted = []
        refused = []
        lock = threading.Lock()

        def hammer():
            barrier.wait()
            if breaker.allow("seis-eu"):
                with lock:
                    admitted.append(threading.get_ident())
            else:
                refusal = breaker.refusal("seis-eu", endpoint="seis-eu")
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
        assert breaker.state_of("seis-eu") == CIRCUIT_HALF_OPEN
        # The probe's success closes the circuit for everyone.
        breaker.record_success("seis-eu")
        assert breaker.state_of("seis-eu") == CIRCUIT_CLOSED
        assert breaker.allow("seis-eu")

    def test_abandoned_probe_frees_the_slot(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        breaker.record_failure("seis-eu", OSError("down"))
        clock.now = 31.0
        assert breaker.allow("seis-eu")  # the probe
        assert not breaker.allow("seis-eu")
        breaker.abandon_probe("seis-eu")  # no verdict: still half-open
        assert breaker.state_of("seis-eu") == CIRCUIT_HALF_OPEN
        assert breaker.allow("seis-eu")  # the next caller probes
        assert not breaker.allow("seis-eu")
        breaker.abandon_probe("unknown")  # no circuit: a no-op


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


class TestBreakerIntegration:
    def test_failures_open_circuit_across_queries(self, repo):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=60.0, clock=clock
        )
        executor = _executor(
            repo, workers=1, on_mount_error="skip", breaker=breaker
        )
        baseline = _executor(repo).execute(COUNT_SQL).rows
        victim = repo.uris()[0]
        plan = FaultPlan(
            [FaultSpec(uri_suffix=victim, kind=TRANSIENT_OSERROR, times=-1)]
        )

        # Query 1: the fault opens the circuit.
        with plan.install():
            first = executor.execute(COUNT_SQL)
        assert victim in first.mount_failures.uris()
        assert breaker.state_of(victim) == CIRCUIT_OPEN

        # Query 2: faults are gone and the file is healthy, but the circuit
        # is still cooling down — the mount is refused without any I/O.
        second = executor.execute(COUNT_SQL)
        assert second.trace.counters["breaker_skips"] >= 1
        failures = second.mount_failures
        assert failures.uris() == [victim]
        assert failures.failures[0].error == "CircuitOpenError"
        assert second.rows != baseline

        # Query 3: past the cooldown, the half-open probe heals the circuit.
        clock.now = 61.0
        third = executor.execute(COUNT_SQL)
        assert third.rows == baseline
        assert breaker.state_of(victim) == CIRCUIT_CLOSED

    def test_fail_fast_refusal_raises_circuit_open(self, repo):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=60.0)
        executor = _executor(repo, workers=1, breaker=breaker)
        victim = repo.uris()[0]
        breaker.record_failure(victim, OSError("seeded"))
        with pytest.raises(CircuitOpenError) as excinfo:
            executor.execute(COUNT_SQL)
        assert excinfo.value.uri == victim
