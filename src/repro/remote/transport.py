"""The resilient transport: every remote request goes through here.

One :class:`ResilientTransport` fronts one endpoint's object store and
wraps each request in three layers of protection, outside-in, plus a
deadline:

1. **Per-endpoint circuit breaker** — the PR 5 :class:`CircuitBreaker`
   keyed by *endpoint* instead of URI: an endpoint that keeps failing is
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
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    CancellationToken,
    CircuitBreaker,
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
    """The retry ladder's knobs plus a deadline for each attempt."""

    request_timeout_seconds: Optional[float] = None  # per attempt

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.request_timeout_seconds is not None and (
            self.request_timeout_seconds <= 0
        ):
            raise ValueError("request_timeout_seconds must be positive")


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
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.policy = policy
        # Endpoint-keyed breaker. Sharable across transports (a federation
        # passes one) — the key space is endpoints, so transports don't
        # collide.
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(failure_threshold=3, cooldown_seconds=0.25)
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
        probe = self._admit(endpoint, uri or op, token)
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
                self.breaker.record_success(endpoint)
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
                self.breaker.record_success(endpoint)
                raise StaleFileError(
                    f"{op}: {exc}", uri=uri, cause=exc
                ) from exc
            except OSError as exc:
                failure = RemoteTransportError(
                    f"{op} failed: {exc}", uri=uri, endpoint=endpoint, cause=exc
                )
                self.breaker.record_failure(endpoint, failure)
                with self._lock:
                    self.stats.failures += 1
                    self.stats.timeouts += isinstance(exc, TimeoutError)
                raise failure from exc
            except BaseException:
                # No verdict on the endpoint (the query was cancelled
                # mid-request): a probe frees its slot for the next request.
                if probe:
                    self.breaker.abandon_probe(endpoint)
                raise
            self.breaker.record_success(endpoint)
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
                probe = self._admit(endpoint, uri or op, token)
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

    def _admit(
        self, endpoint: str, subject: str, token: CancellationToken
    ) -> bool:
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
        timeout = self.policy.request_timeout_seconds
        deadline = self._clock() + min(
            self.breaker.cooldown_seconds,
            _PROBE_WAIT_SECONDS if timeout is None else timeout,
        )
        while not self.breaker.allow(endpoint):
            state = self.breaker.state_of(endpoint)
            if state == CIRCUIT_OPEN or self._clock() >= deadline:
                with self._lock:
                    self.stats.breaker_refusals += 1
                raise self.breaker.refusal(subject, endpoint=endpoint)
            # Closed means the probe succeeded since allow() ran: ask again.
            if state == CIRCUIT_HALF_OPEN and token.wait(_POLL_SECONDS):
                raise token.interruption()
        # A half-open circuit says yes to its one probe only.
        return self.breaker.state_of(endpoint) == CIRCUIT_HALF_OPEN


__all__ = [
    "RequestScope",
    "ResilientTransport",
    "TransportPolicy",
    "TransportStats",
]
