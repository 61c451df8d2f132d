"""The resilient transport: every remote request goes through here.

One :class:`ResilientTransport` fronts one endpoint's object store and
wraps each request in three layers of protection, outside-in, plus a
deadline:

1. **The endpoint's circuit** — the transport's own
   :class:`CircuitBreaker`, sized by the policy (``breaker_failures``,
   ``breaker_cooldown_seconds``): an endpoint that keeps failing is
   refused outright (``CircuitOpenError`` carrying the endpoint name) until
   a half-open probe succeeds; requests arriving while that probe is in
   flight wait for its verdict. One dead endpoint costs one failure streak,
   not a retry ladder per file behind it.
2. **Per-query retry budget** — retries spend from one
   :class:`~repro.core.governor.RetryBudget` shared by all of a query's
   mount workers, so a flapping endpoint degrades the query instead of
   stretching it without bound.
3. **Jittered exponential backoff** between attempts, waited on the query's
   cancellation token: the engine's one
   :class:`~repro.core.governor.RetryLadder`, climbed under the policy.

A request is repeated here and nowhere else: a
:class:`RemoteTransportError` that leaves the transport has climbed the
whole ladder, and the mount layer takes it as final.

Every attempt runs on the calling thread; the transport owns no thread.
With ``request_timeout_seconds`` set, each attempt carries an absolute
deadline into the store, which checks it at every modeled wait and raises
``TimeoutError`` past it — what a socket timeout does. That is an
``OSError``, so it is a transient failure like any other: retried, and
counted in ``stats.timeouts``. The deadline is checked at the request's
waits, not inside a read: a read that hangs (a fault plan's ``STALL``) is
noticed at the wait that follows its chunk, not mid-read.

The transport itself belongs to no query: the token and the budget arrive
*with each request*, as its ``scope`` (a :class:`RequestScope` — the query's
:class:`~repro.core.mounting.MountContext`, handed down through the
repository hooks). A request without a scope (metadata ingestion, the query
service's shared extraction) is a scope of its own: a token nobody can fire,
a budget of ``retry_budget_attempts`` for that one request.

Raw store errors are wrapped into the typed taxonomy here:
``FileNotFoundError`` → :class:`RemoteObjectMissingError` (non-transient);
a conditional GET's 412 → the mount layer's transient
:class:`~repro.db.errors.StaleFileError` (the endpoint answered both: no
retry here, no breaker failure); everything else OS-shaped — a response
reset because the object changed while it was being served included —
→ :class:`RemoteTransportError` (transient, retried here).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Protocol, TypeVar

from .. import _sync
from ..core.governor import (
    CancellationToken,
    RetryBudget,
    RetryLadder,
    RetryPolicy,
)
from ..db.errors import (
    CircuitOpenError,
    FileIngestError,
    RemoteObjectMissingError,
    RemoteTransportError,
    StaleFileError,
)
from .simstore import ListPage, ObjectStat, PreconditionFailed, SimulatedObjectStore

T = TypeVar("T")

# Wait slice while a half-open probe is in flight: bounds how stale a
# request's view of the probe's verdict can be.
_POLL_SECONDS = 0.005
# How long a request waits on another request's half-open probe when the
# policy sets no request timeout.
_PROBE_WAIT_SECONDS = 1.0


class RequestScope(Protocol):
    """What a request needs of the query it runs for: the token that
    interrupts its waits, and that query's one retry budget per endpoint
    (created full, at ``attempts``, by the first request that asks)."""

    token: CancellationToken

    def retry_budget(self, endpoint: str, attempts: int) -> RetryBudget: ...


@dataclass(frozen=True)
class TransportPolicy(RetryPolicy):
    """The retry ladder's knobs, a deadline for each attempt, and the
    endpoint circuit's: it opens after ``breaker_failures`` failed attempts
    in a row and lets one probe through ``breaker_cooldown_seconds`` later.
    """

    request_timeout_seconds: Optional[float] = None  # per attempt
    breaker_failures: int = 3
    breaker_cooldown_seconds: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.request_timeout_seconds is not None and (
            self.request_timeout_seconds <= 0
        ):
            raise ValueError("request_timeout_seconds must be positive")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be >= 0")


CIRCUIT_CLOSED = "closed"
CIRCUIT_OPEN = "open"
CIRCUIT_HALF_OPEN = "half_open"


@_sync.guarded
class CircuitBreaker:
    """One endpoint's circuit: its failures scored across queries.

    ``closed`` → normal; failures accumulate, a success resets the score.
    ``open`` → after ``failure_threshold`` consecutive failures; requests
    are refused outright (:meth:`refusal`, a
    :class:`~repro.db.errors.CircuitOpenError` naming the endpoint) until
    ``cooldown_seconds`` pass.
    ``half_open`` → after the cooldown, exactly one probe is let through;
    success closes the circuit, failure re-opens it and restarts the
    cooldown, and a probe that ends without a verdict frees its slot for
    the next caller (:meth:`abandon_probe`).

    ``clock`` is injectable so tests drive the cooldown deterministically.
    """

    def __init__(
        self,
        endpoint: str,
        failure_threshold: int,
        cooldown_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.endpoint = endpoint
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = _sync.create_lock("CircuitBreaker._lock")
        self._state = CIRCUIT_CLOSED  # guarded-by: _lock
        self._failures = 0  # guarded-by: _lock
        self._opened_at = 0.0  # guarded-by: _lock
        self._probing = False  # guarded-by: _lock
        self._last_error = ""  # guarded-by: _lock

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request go out right now? (May admit the half-open probe.)"""
        with self._lock:
            if self._state == CIRCUIT_CLOSED:
                return True
            if self._state == CIRCUIT_OPEN:
                if self._clock() - self._opened_at < self.cooldown_seconds:
                    return False
                self._state = CIRCUIT_HALF_OPEN
            elif self._probing:
                return False  # half-open: one probe at a time
            self._probing = True
            return True

    def record_failure(self, error: Optional[BaseException] = None) -> None:
        with self._lock:
            self._failures += 1
            if error is not None:
                self._last_error = type(error).__name__
            if (
                self._state == CIRCUIT_HALF_OPEN
                or self._failures >= self.failure_threshold
            ):
                self._state = CIRCUIT_OPEN
                self._opened_at = self._clock()
            self._probing = False

    def record_success(self) -> None:
        with self._lock:
            self._state = CIRCUIT_CLOSED
            self._failures = 0
            self._probing = False
            self._last_error = ""

    def abandon_probe(self) -> None:
        """The admitted half-open probe ended without a verdict (its query
        was cancelled mid-request): free the slot so the next caller probes."""
        with self._lock:
            if self._state == CIRCUIT_HALF_OPEN:
                self._probing = False

    def refusal(self, subject: str) -> CircuitOpenError:
        """The typed error for a request about ``subject`` (a file's URI,
        else the request) that the circuit refused."""
        with self._lock:
            failures, last = self._failures, self._last_error
            remaining = 0.0
            if self._state == CIRCUIT_OPEN:
                remaining = max(
                    0.0,
                    self.cooldown_seconds - (self._clock() - self._opened_at),
                )
        detail = (
            f"endpoint {self.endpoint!r}: circuit open after "
            f"{failures} failure(s)"
        )
        if last:
            detail = f"{detail} (last: {last})"
        if remaining > 0:
            detail = f"{detail}; probe retry in {remaining:.1f}s"
        return CircuitOpenError(detail, uri=subject, endpoint=self.endpoint)


@dataclass
class TransportStats:
    requests: int = 0
    failures: int = 0  # failed attempts (pre-retry)
    retries: int = 0
    retries_denied: int = 0  # retry wanted, budget dry
    timeouts: int = 0  # attempts that reached their deadline
    breaker_refusals: int = 0


class ResilientTransport:
    """All requests to one endpoint, wrapped in the resilience layers."""

    def __init__(
        self,
        store: SimulatedObjectStore,
        policy: TransportPolicy = TransportPolicy(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.policy = policy
        self.breaker = CircuitBreaker(
            store.endpoint,
            policy.breaker_failures,
            policy.breaker_cooldown_seconds,
            clock,
        )
        self.stats = TransportStats()  # guarded-by: _lock
        self._clock = clock
        self._lock = _sync.create_lock("ResilientTransport._lock")
        self._ladder = RetryLadder(policy)

    # -- public request API --------------------------------------------------

    def list_keys(
        self, scope: Optional[RequestScope] = None
    ) -> list[ObjectStat]:
        """Every object's stat, in key order: one request per page of the
        store's listing, each under the resilience layers on its own — a
        page that fails is retried alone, and a listing that cannot be
        completed raises with nothing of it returned."""
        listed: list[ObjectStat] = []
        after: Optional[str] = None
        while True:
            page = self.list_page("", after, scope)
            listed.extend(page.entries)
            after = page.next_after
            if after is None:
                return listed

    def list_page(
        self, prefix: str, after: Optional[str], scope: Optional[RequestScope]
    ) -> ListPage:
        """One page of the listing of the keys that start with ``prefix``
        (``""``: every key), after ``after``: one LIST request."""
        fetch = partial(self.store.list_keys, after, prefix=prefix)
        return self._call("LIST", None, scope, fetch)

    def head(
        self,
        key: str,
        uri: Optional[str] = None,
        scope: Optional[RequestScope] = None,
    ) -> ObjectStat:
        return self._call(
            f"HEAD:{key}", uri, scope, partial(self.store.head, key)
        )

    def get(
        self,
        key: str,
        start: int = 0,
        length: Optional[int] = None,
        if_match: Optional[tuple[int, int]] = None,
        uri: Optional[str] = None,
        scope: Optional[RequestScope] = None,
    ) -> tuple[ObjectStat, bytes]:
        """The object's stat and the bytes asked for, both of one version —
        of ``if_match``, when given, or :class:`StaleFileError`."""
        return self._call(
            f"GET:{key}",
            uri,
            scope,
            partial(self.store.get, key, start, length, if_match),
        )

    # -- internals -----------------------------------------------------------

    def _call(
        self,
        op: str,
        uri: Optional[str],
        scope: Optional[RequestScope],
        fn: Callable[..., T],
    ) -> T:
        """Run the store request ``fn(deadline=..., token=...)`` under the
        resilience layers; each attempt gets a deadline of its own."""
        endpoint = self.store.endpoint
        policy = self.policy
        timeout = policy.request_timeout_seconds
        if scope is None:
            token = CancellationToken()
            budget = RetryBudget(policy.retry_budget_attempts)
        else:
            token = scope.token
            budget = scope.retry_budget(endpoint, policy.retry_budget_attempts)
        probe = self._admit(uri or op, token)
        with self._lock:
            self.stats.requests += 1

        def attempt(_: int) -> T:
            # On the monotonic clock the store's modeled waits run on.
            deadline = None if timeout is None else time.monotonic() + timeout
            try:
                result = fn(deadline=deadline, token=token)
            except FileNotFoundError as exc:
                # The endpoint *answered* — this is a repository fact, not
                # a transport failure; it neither trips the breaker nor
                # earns a retry.
                self.breaker.record_success()
                raise RemoteObjectMissingError(
                    f"{op}: object does not exist on {endpoint!r}",
                    uri=uri,
                    endpoint=endpoint,
                    cause=exc,
                ) from exc
            except PreconditionFailed as exc:
                # Answered too: the object is not the version the caller
                # holds bytes of. Asking again cannot change that; the
                # caller starts over from the version there is now.
                self.breaker.record_success()
                raise StaleFileError(
                    f"{op}: {exc}", uri=uri, cause=exc
                ) from exc
            except OSError as exc:
                failure = RemoteTransportError(
                    f"{op} failed: {exc}", uri=uri, endpoint=endpoint, cause=exc
                )
                self.breaker.record_failure(failure)
                with self._lock:
                    self.stats.failures += 1
                    self.stats.timeouts += isinstance(exc, TimeoutError)
                raise failure from exc
            except BaseException:
                # No verdict on the endpoint (the query was cancelled
                # mid-request): a probe frees its slot for the next request.
                if probe:
                    self.breaker.abandon_probe()
                raise
            self.breaker.record_success()
            return result

        def admit(failure: FileIngestError) -> None:
            nonlocal probe
            if not budget.try_spend():
                with self._lock:
                    self.stats.retries_denied += 1
                raise failure
            try:
                # A failure streak that just opened the circuit stops here
                # rather than probing it from inside one request's ladder.
                probe = self._admit(uri or op, token)
            except CircuitOpenError as refusal:
                refusal.retries = failure.retries
                raise refusal from failure
            with self._lock:
                self.stats.retries += 1

        return self._ladder.run(
            attempt,
            token=token,
            retryable=lambda failure: isinstance(failure, RemoteTransportError)
            and failure.transient,
            admit=admit,
        )

    def _admit(self, subject: str, token: CancellationToken) -> bool:
        """Pass the breaker, or raise its refusal.

        Returns whether this request is the half-open probe. A query's mount
        workers reach a recovering endpoint together, and the half-open
        circuit admits one probe. A request that finds that probe in flight
        waits for its verdict — success closes the circuit and admits it,
        failure re-opens the circuit and refuses it, an abandoned probe
        hands it the slot — rather than failing for being second. An open
        circuit refuses at once, and the wait is bounded by what one request
        may take (the request timeout, else ``_PROBE_WAIT_SECONDS``) and by
        the cooldown a refusal would have imposed.
        """
        breaker, timeout = self.breaker, self.policy.request_timeout_seconds
        deadline = self._clock() + min(
            breaker.cooldown_seconds,
            _PROBE_WAIT_SECONDS if timeout is None else timeout,
        )
        while not breaker.allow():
            state = breaker.state
            if state == CIRCUIT_OPEN or self._clock() >= deadline:
                with self._lock:
                    self.stats.breaker_refusals += 1
                raise breaker.refusal(subject)
            # Closed means the probe succeeded since allow() ran: ask again.
            if state == CIRCUIT_HALF_OPEN and token.wait(_POLL_SECONDS):
                raise token.interruption()
        # A half-open circuit says yes to its one probe only.
        return breaker.state == CIRCUIT_HALF_OPEN

__all__ = [
    "CIRCUIT_CLOSED",
    "CIRCUIT_HALF_OPEN",
    "CIRCUIT_OPEN",
    "CircuitBreaker",
    "RequestScope",
    "ResilientTransport",
    "TransportPolicy",
    "TransportStats",
]
