"""The query governor — deadlines, budgets, cancellation, retries.

The paper's §5 "query destiny" lets the scientist bound or abort a query at
the inter-stage breakpoint; this module extends that control *into* stage 2,
so no query can run, sleep, or retry unboundedly once mounting has started:

* :class:`QueryBudget` — declarative limits for one execution: a wall-clock
  deadline, a cap on bytes mounted off the repository, and a cap on records
  decoded. ``on_budget`` picks what exhaustion means: ``"raise"`` aborts
  with :class:`~repro.db.errors.QueryBudgetExceeded`; ``"partial"`` stops
  mounting and answers from the tuples produced so far, disclosed through a
  :class:`TruncationReport` on the result.
* :class:`CancellationToken` — one :class:`threading.Event` plus callbacks,
  shared by every thread a query touches. The kernel loop checks it between
  operators, mount-pool workers observe it through their waits, and the
  retry ladder's backoff waits *on* it — cancellation latency is bounded by
  the longest single read, not by sleeps or poll intervals.
* :class:`QueryGovernor` — one per ``execute()`` call; owns the budget and
  the token, arms a timer that fires the token at the deadline (waking every
  blocked wait immediately), and keeps the byte/record ledger the budget is
  charged against.
* :class:`RetryLadder` — the one retry ladder, climbed under a
  :class:`RetryPolicy`: the remote transport repeats a request on it, the
  mount layer restarts an extraction on it, and each failure is retried by
  exactly one of the two. :class:`RetryBudget` caps a query's retries.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from .. import _sync
from ..db.errors import (
    FileIngestError,
    QueryBudgetExceeded,
    QueryCancelledError,
)

T = TypeVar("T")

# What exhausting a budget does to the query.
ON_BUDGET_RAISE = "raise"  # abort with QueryBudgetExceeded (default)
ON_BUDGET_PARTIAL = "partial"  # answer from tuples-so-far + TruncationReport

ON_BUDGET_POLICIES = (ON_BUDGET_RAISE, ON_BUDGET_PARTIAL)

# Why a token fired.
_CANCELLED = "cancelled"  # caller-initiated
_EXPIRED = "expired"  # budget/deadline-initiated


@_sync.guarded
class CancellationToken:
    """Cooperative cancellation, shared across every thread of one query.

    The token is a latch: once fired it stays fired. Long waits must wait on
    :meth:`wait` (the underlying event) instead of sleeping, and loops must
    call :meth:`raise_if_interrupted` at their boundaries. :meth:`on_cancel`
    callbacks run on the firing thread — the mount pool registers its
    ``cancel_outstanding`` there so blocked workers wake in O(ms).
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = _sync.create_lock("CancellationToken._lock")
        # Write-once latch pair: _fire() writes them under _lock exactly
        # once, then publishes through _event.set(); readers check the
        # outcome/fired flag first, so the post-publication values are
        # stable without the lock.
        self._outcome: Optional[str] = None  # unguarded-ok: write-once latch published by _event.set()
        self._reason: str = ""  # unguarded-ok: write-once latch published by _event.set()
        self._callbacks: list[Callable[[], None]] = []  # guarded-by: _lock

    @property
    def fired(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        return self._reason

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the token fires or ``timeout`` elapses; True if fired.

        This is the interruptible replacement for ``time.sleep`` in retry
        backoff and fault-injected latency: a fired token cuts the wait
        short immediately.
        """
        return self._event.wait(timeout)

    def cancel(self, reason: str = "query cancelled by caller") -> None:
        """Caller-initiated cancellation (always raises, never truncates)."""
        self._fire(_CANCELLED, reason)

    def expire(self, reason: str) -> None:
        """Budget-initiated firing (the governor's deadline timer)."""
        self._fire(_EXPIRED, reason)

    def _fire(self, outcome: str, reason: str) -> None:
        with self._lock:
            if self._outcome is not None:
                return  # first firing wins; the latch never resets
            self._outcome = outcome
            self._reason = reason
            callbacks = list(self._callbacks)
        self._event.set()
        for callback in callbacks:
            callback()

    def on_cancel(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the token fires (immediately if it has)."""
        with self._lock:
            if self._outcome is None:
                self._callbacks.append(callback)
                return
        callback()

    def interruption(self) -> Optional[Exception]:
        """The typed error this firing means, or None while unfired.

        A fresh exception per call — the token may be observed concurrently
        from several threads, and exceptions are mutable (tracebacks).
        """
        outcome = self._outcome
        if outcome is None:
            return None
        if outcome is _CANCELLED:
            return QueryCancelledError(self._reason)
        return QueryBudgetExceeded(self._reason)

    def raise_if_interrupted(self) -> None:
        exc = self.interruption()
        if exc is not None:
            raise exc


@dataclass(frozen=True)
class QueryBudget:
    """Declarative limits for one query execution (None = unlimited)."""

    deadline_seconds: Optional[float] = None
    max_mount_bytes: Optional[int] = None
    max_decoded_records: Optional[int] = None
    on_budget: str = ON_BUDGET_RAISE

    def __post_init__(self) -> None:
        if self.on_budget not in ON_BUDGET_POLICIES:
            raise ValueError(
                f"on_budget must be one of {ON_BUDGET_POLICIES}, "
                f"got {self.on_budget!r}"
            )
        for name in ("deadline_seconds", "max_mount_bytes", "max_decoded_records"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite, got {value!r}"
                )


@dataclass(frozen=True)
class TruncationReport:
    """How much of the query a tripped budget left unanswered.

    Attached to ``TwoStageResult.truncation`` / ``MultiStageResult.truncation``
    under the ``on_budget="partial"`` policy — the degraded-answer disclosure,
    mirroring :class:`~repro.core.mounting.MountFailureReport` for skips.
    """

    reason: str
    elapsed_seconds: float
    bytes_mounted: int
    records_decoded: int
    mounts_completed: int
    mounts_truncated: int  # branches answered empty after the trip

    def describe(self) -> str:
        return (
            f"answer truncated: {self.reason} "
            f"(after {self.elapsed_seconds:.3f}s, "
            f"{self.mounts_completed} mount(s) completed, "
            f"{self.mounts_truncated} skipped, "
            f"{self.bytes_mounted:,} bytes, "
            f"{self.records_decoded:,} records decoded)"
        )


@_sync.guarded
class QueryGovernor:
    """Per-execution budget enforcement and cancellation fan-out.

    One governor serves one ``execute()`` call. It owns (or adopts) the
    query's :class:`CancellationToken`, arms a daemon timer that *expires*
    the token at the wall deadline — waking every event-based wait at once —
    and keeps the mounted-bytes / decoded-records ledger.

    Checkpoints (:meth:`checkpoint`) are placed between physical operators,
    at mount branch entry, and at multi-stage batch boundaries; they are a
    couple of attribute reads when nothing has fired, so the hot path stays
    hot. Charging (:meth:`charge_mount`) happens once per completed
    extraction, on the consuming side.
    """

    def __init__(
        self,
        budget: Optional[QueryBudget] = None,
        token: Optional[CancellationToken] = None,
        clock: Callable[[], float] = time.monotonic,
        on_charge: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.budget = budget if budget is not None else QueryBudget()
        self.token = token if token is not None else CancellationToken()
        # `on_charge(bytes_read, records_decoded)` fires once per completed
        # extraction, after the ledger update but before any budget raise —
        # the per-tenant accounting hook: the query service feeds every
        # query's charges into its tenant's aggregate ledger through this,
        # so tenant-level admission (shedding on an exhausted byte budget)
        # sees mounts the moment they complete, not when the query returns.
        self.on_charge = on_charge
        self._clock = clock
        self._lock = _sync.create_lock("QueryGovernor._lock")
        self._started = clock()
        self._deadline_at: Optional[float] = None
        # _trip_reason is a write-once latch (first _trip wins); readers
        # (tripped/trip_reason properties, the raise paths) only consume it
        # after it is set, and it never changes once non-None.
        self._trip_reason: Optional[str] = None  # unguarded-ok: write-once latch; first _trip() wins
        self.bytes_mounted = 0  # guarded-by: _lock
        self.records_decoded = 0  # guarded-by: _lock
        self.mounts_completed = 0  # guarded-by: _lock
        self.mounts_truncated = 0  # guarded-by: _lock
        self._timer: Optional[threading.Timer] = None
        if self.budget.deadline_seconds is not None:
            self._deadline_at = self._started + self.budget.deadline_seconds
            self._timer = threading.Timer(
                self.budget.deadline_seconds, self._deadline_fired
            )
            self._timer.daemon = True
            self._timer.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Disarm the deadline timer (executor calls this in its finally)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- state ---------------------------------------------------------------

    @property
    def partial(self) -> bool:
        """True when exhaustion truncates instead of raising."""
        return self.budget.on_budget == ON_BUDGET_PARTIAL

    @property
    def tripped(self) -> bool:
        return self._trip_reason is not None

    @property
    def should_truncate(self) -> bool:
        """True once a tripped budget should empty the remaining branches."""
        return self.tripped and self.partial

    def elapsed(self) -> float:
        return self._clock() - self._started

    # -- enforcement ---------------------------------------------------------

    def _trip(self, reason: str) -> None:
        with self._lock:
            if self._trip_reason is None:
                self._trip_reason = reason

    def _deadline_fired(self) -> None:
        reason = (
            f"wall deadline of {self.budget.deadline_seconds}s exceeded"
        )
        self._trip(reason)
        self.token.expire(reason)

    def checkpoint(self) -> None:
        """Enforce the budget at a safe point.

        Caller cancellation always raises. A tripped budget raises under
        ``on_budget="raise"`` and merely stays tripped under ``"partial"``
        (the mount layer then answers remaining branches empty).
        """
        if self.token.fired:
            exc = self.token.interruption()
            if isinstance(exc, QueryCancelledError):
                raise exc
        if (
            self._deadline_at is not None
            and not self.tripped
            and self._clock() >= self._deadline_at
        ):
            # The timer thread may lag; the clock is authoritative.
            self._deadline_fired()
        if self.tripped and not self.partial:
            raise QueryBudgetExceeded(
                str(self._trip_reason), self.truncation_report()
            )

    def charge_mount(self, bytes_read: int, records_decoded: int) -> None:
        """Account one completed extraction against the budget."""
        with self._lock:
            self.bytes_mounted += bytes_read
            self.records_decoded += records_decoded
            self.mounts_completed += 1
            # Snapshot the totals this charge produced while still inside
            # the critical section: the budget comparison below must not
            # re-read the ledger after the lock drops, where concurrent
            # charges would make the trip decision (and its message)
            # depend on worker interleaving.
            bytes_total = self.bytes_mounted
            records_total = self.records_decoded
        if self.on_charge is not None:
            # Outside the lock, and before a raise-mode trip below: the
            # tenant ledger must record work that was actually done even
            # when doing it exhausted this query's own budget.
            self.on_charge(bytes_read, records_decoded)
        budget = self.budget
        if (
            budget.max_mount_bytes is not None
            and bytes_total > budget.max_mount_bytes
        ):
            self._trip(
                f"mounted {bytes_total:,} bytes, over the "
                f"{budget.max_mount_bytes:,}-byte budget"
            )
        if (
            budget.max_decoded_records is not None
            and records_total > budget.max_decoded_records
        ):
            self._trip(
                f"decoded {records_total:,} records, over the "
                f"{budget.max_decoded_records:,}-record budget"
            )
        if self.tripped and not self.partial:
            raise QueryBudgetExceeded(
                str(self._trip_reason), self.truncation_report()
            )

    def note_truncated_mount(self) -> None:
        with self._lock:
            self.mounts_truncated += 1

    def truncation_report(self) -> Optional[TruncationReport]:
        """The disclosure for this execution, or None when nothing tripped."""
        reason = self._trip_reason
        if reason is None:
            return None
        with self._lock:
            # One consistent ledger snapshot — a report built from reads
            # interleaved with concurrent charges could pair this charge's
            # byte count with the next one's record count.
            return TruncationReport(
                reason=reason,
                elapsed_seconds=self.elapsed(),
                bytes_mounted=self.bytes_mounted,
                records_decoded=self.records_decoded,
                mounts_completed=self.mounts_completed,
                mounts_truncated=self.mounts_truncated,
            )


# -- retry budget --------------------------------------------------------------


@_sync.guarded
class RetryBudget:
    """A per-query cap on *extra* attempts across every remote request.

    The per-request retry ladder bounds one request; the retry budget bounds
    the query: a flapping endpoint that makes every ranged GET need two
    retries would otherwise multiply the query's wall time by the retry
    count times the file count. Each retry spends one unit via
    :meth:`try_spend`; once the pool is dry, requests get exactly one
    attempt and failures surface immediately — degrading the query instead
    of stretching it.

    Shared by every mount worker of one query, hence the lock. There is one
    per (query, endpoint): the query's
    :class:`~repro.core.mounting.MountContext` creates it, full, for the
    first request it sends that endpoint.
    """

    def __init__(self, attempts: int = 64) -> None:
        if attempts < 0:
            raise ValueError("attempts must be >= 0")
        self.attempts = attempts
        self._lock = _sync.create_lock("RetryBudget._lock")
        self._spent = 0  # guarded-by: _lock

    def try_spend(self, n: int = 1) -> bool:
        """Reserve ``n`` attempts; False (and no spend) when over budget."""
        with self._lock:
            if self._spent + n > self.attempts:
                return False
            self._spent += n
            return True

    def spent(self) -> int:
        with self._lock:
            return self._spent

    def remaining(self) -> int:
        with self._lock:
            return max(0, self.attempts - self._spent)


# -- retry ladder --------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """The knobs of one :class:`RetryLadder`.

    ``max_attempts`` counts the first attempt. The wait before retry ``k``
    (1-based) is ``backoff_seconds * backoff_multiplier ** (k - 1)``,
    stretched by a uniform draw from ``[1, 1 + backoff_jitter]`` out of a
    stream seeded by ``jitter_seed``. ``retry_budget_attempts`` sizes the
    per-query :class:`RetryBudget` a ladder's caller spends retries from.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.5
    retry_budget_attempts: int = 64  # per query, shared across workers
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("backoff_seconds", "backoff_multiplier", "backoff_jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        for name in ("backoff_seconds", "backoff_jitter", "retry_budget_attempts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@_sync.guarded
class RetryLadder:
    """The one retry ladder: attempts, jittered exponential backoff, and a
    retry count on every failure that leaves.

    :meth:`run` calls ``attempt(n)`` for ``n = 0, 1, …`` until one returns.
    A :class:`~repro.db.errors.FileIngestError` ends the climb when it is
    not ``retryable`` or the policy's attempts are spent; otherwise
    ``admit(failure)`` may still stop it by raising (the transport spends
    its retry budget and consults its endpoint circuit there; the mount
    layer counts the restart), and the backoff is waited on the query's
    token, so a cancelled or expired query stops climbing at once. The failure that leaves carries in ``retries``
    every retry its file cost: this ladder's, plus those an inner ladder
    counted on the failures that led to them.

    Any number of threads may climb one ladder at once; they share its
    jitter stream, so workers that failed together come back apart.
    """

    def __init__(self, policy: RetryPolicy = RetryPolicy()) -> None:
        self.policy = policy
        self._lock = _sync.create_lock("RetryLadder._lock")
        self._rng = random.Random(policy.jitter_seed)  # guarded-by: _lock

    def backoff(self, retry: int) -> float:
        """The wait before retry ``retry`` (1-based), its jitter drawn."""
        policy = self.policy
        wait = policy.backoff_seconds * policy.backoff_multiplier ** (retry - 1)
        if wait > 0 and policy.backoff_jitter > 0:
            with self._lock:
                wait *= 1.0 + policy.backoff_jitter * self._rng.random()
        return wait

    def run(
        self, attempt: Callable[[int], T], *, token: CancellationToken,
        retryable: Callable[[FileIngestError], bool],
        admit: Optional[Callable[[FileIngestError], None]] = None,
    ) -> T:
        n = spent = 0  # attempts made, retries they cost
        while True:
            try:
                return attempt(n)
            except FileIngestError as failure:
                failure.retries += spent
                n += 1
                if not retryable(failure) or n >= self.policy.max_attempts:
                    raise
                if admit is not None:
                    admit(failure)
                spent = failure.retries + 1
                wait = self.backoff(n)
                if wait > 0 and token.wait(wait):
                    raise token.interruption() from failure


__all__ = [
    "CancellationToken",
    "ON_BUDGET_PARTIAL",
    "ON_BUDGET_POLICIES",
    "ON_BUDGET_RAISE",
    "QueryBudget",
    "QueryGovernor",
    "RetryBudget",
    "RetryLadder",
    "RetryPolicy",
    "TruncationReport",
]
