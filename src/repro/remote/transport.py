"""The resilient transport: every remote request goes through here.

One :class:`ResilientTransport` fronts one endpoint's object store and
wraps each request in four layers of protection, outside-in:

1. **Per-endpoint circuit breaker** — the PR 5 :class:`CircuitBreaker`
   keyed by *endpoint* instead of URI: an endpoint that keeps failing is
   refused outright (``CircuitOpenError`` carrying the endpoint name) until
   a half-open probe succeeds; requests arriving while that probe is in
   flight wait for its verdict. One dead endpoint costs one failure streak,
   not a retry ladder per file behind it.
2. **Per-query retry budget** — retries and hedges spend from one
   :class:`~repro.core.governor.RetryBudget` shared by all of a query's
   mount workers, so a flapping endpoint degrades the query instead of
   stretching it without bound.
3. **Jittered exponential backoff** between attempts, waited on the query's
   cancellation token.
4. **Per-request timeout + hedged backup requests** — attempts run on a
   small worker pool; the caller's wait is sliced against the token, a
   request that outlives its timeout is abandoned, and once the latency
   tracker has enough samples a backup request is launched when the primary
   outlives the configured percentile — first success wins, the loser is
   cancelled (tail latency without duplicate side effects: requests are
   read-only).

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

import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
)
from ..db.errors import (
    RemoteObjectMissingError,
    RemoteTransportError,
    StaleFileError,
)
from .netmodel import RequestAbandoned, interruptible_wait
from .simstore import ObjectStat, PreconditionFailed, SimulatedObjectStore

T = TypeVar("T")

# Caller-side wait slice while attempts run on the pool: bounds how stale a
# token/timeout/hedge check can be.
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
class TransportPolicy:
    """Knobs of the resilience layer (all per-request unless noted).

    ``request_timeout_seconds=None`` and ``hedge_enabled=False`` together
    select the zero-thread fast path: requests run inline on the calling
    mount worker — the configuration the ≤2 % fault-free overhead target is
    measured for.
    """

    request_timeout_seconds: Optional[float] = None
    max_attempts: int = 3
    backoff_seconds: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.5
    retry_budget_attempts: int = 64  # per query, shared across workers
    hedge_enabled: bool = False
    hedge_percentile: float = 0.95  # launch backup past this latency…
    hedge_multiplier: float = 1.5  # …times this factor
    hedge_min_samples: int = 8  # no hedging before the tracker warms up
    jitter_seed: int = 0  # backoff jitter stream (deterministic tests)

    def __post_init__(self) -> None:
        if self.request_timeout_seconds is not None and (
            self.request_timeout_seconds <= 0
        ):
            raise ValueError("request_timeout_seconds must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")
        if self.retry_budget_attempts < 0:
            raise ValueError("retry_budget_attempts must be >= 0")
        if not 0.0 < self.hedge_percentile < 1.0:
            raise ValueError("hedge_percentile must be in (0, 1)")
        if self.hedge_multiplier < 1.0:
            raise ValueError("hedge_multiplier must be >= 1")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")

    @property
    def inline(self) -> bool:
        """True when requests can run on the caller with zero extra threads."""
        return self.request_timeout_seconds is None and not self.hedge_enabled


@_sync.guarded
class LatencyTracker:
    """Ring buffer of completed request latencies, for the hedge trigger."""

    def __init__(self, capacity: int = 128) -> None:
        self._lock = _sync.create_lock("LatencyTracker._lock")
        self._samples: deque[float] = deque(maxlen=capacity)  # guarded-by: _lock

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def percentile(self, p: float, min_samples: int = 1) -> Optional[float]:
        """The p-quantile of recent latencies, or None before warm-up."""
        with self._lock:
            if len(self._samples) < min_samples:
                return None
            ordered = sorted(self._samples)
        index = min(len(ordered) - 1, max(0, int(p * len(ordered))))
        return ordered[index]


@dataclass
class TransportStats:
    requests: int = 0
    failures: int = 0  # failed attempts (pre-retry)
    retries: int = 0
    retries_denied: int = 0  # retry wanted, budget dry
    timeouts: int = 0
    hedges: int = 0  # backup requests launched
    hedge_wins: int = 0  # races the backup won
    hedges_denied: int = 0  # hedge wanted, budget dry
    breaker_refusals: int = 0


class _Race:
    """First-success-wins outcome box for one request's attempt set."""

    def __init__(self) -> None:
        self.lock = _sync.create_lock("_Race.lock")
        self.event = threading.Event()
        self.pending = 0  # guarded-by: lock
        self.result: Optional[object] = None  # guarded-by: lock
        self.won = False  # guarded-by: lock
        self.winner_hedge = False  # guarded-by: lock
        self.errors: list[BaseException] = []  # guarded-by: lock

    def offer(self, result: object, is_hedge: bool) -> None:
        with self.lock:
            self.pending -= 1
            if not self.won:
                self.won = True
                self.result = result
                self.winner_hedge = is_hedge
        self.event.set()

    def offer_error(self, exc: BaseException) -> None:
        with self.lock:
            self.pending -= 1
            if not isinstance(exc, RequestAbandoned):
                self.errors.append(exc)
            exhausted = self.pending <= 0 and not self.won
        if exhausted:
            self.event.set()


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
        self.latencies = LatencyTracker()
        self.stats = TransportStats()  # guarded-by: _lock
        self._clock = clock
        self._lock = _sync.create_lock("ResilientTransport._lock")
        self._rng = random.Random(policy.jitter_seed)  # guarded-by: _lock
        self._executor: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)

    def _pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=16,
                    thread_name_prefix=f"transport-{self.store.endpoint}",
                )
            return self._executor

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
            page = self._call(
                "LIST", None, scope, partial(self.store.list_keys, after)
            )
            listed.extend(page.entries)
            after = page.next_after
            if after is None:
                return listed

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
        """Run the store request ``fn(cancel=..., token=...)`` under the
        resilience layers."""
        endpoint = self.store.endpoint
        policy = self.policy
        # The scope is read here, once, on the calling thread; everything
        # below — attempts on the race pool included — gets these two.
        if scope is None:
            token = CancellationToken()
            budget = RetryBudget(policy.retry_budget_attempts)
        else:
            token = scope.token
            budget = scope.retry_budget(endpoint, policy.retry_budget_attempts)
        probe = self._admit(endpoint, uri or op, token)
        with self._lock:
            self.stats.requests += 1
        attempt = 0
        while True:
            try:
                if policy.inline:
                    started = self._clock()
                    result = fn(cancel=None, token=token)
                    self.latencies.record(self._clock() - started)
                else:
                    result = self._race(op, uri, fn, token, budget)
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
            except RemoteTransportError as exc:
                failure: RemoteTransportError = exc
            except OSError as exc:
                failure = RemoteTransportError(
                    f"{op} failed: {exc}",
                    uri=uri,
                    endpoint=endpoint,
                    cause=exc,
                )
            except BaseException:
                # No verdict on the endpoint (the query was cancelled
                # mid-request): a probe frees its slot for the next request.
                if probe:
                    self.breaker.abandon_probe(endpoint)
                raise
            else:
                self.breaker.record_success(endpoint)
                return result
            self.breaker.record_failure(endpoint, failure)
            with self._lock:
                self.stats.failures += 1
            attempt += 1
            if not failure.transient or attempt >= policy.max_attempts:
                raise failure
            if not budget.try_spend():
                with self._lock:
                    self.stats.retries_denied += 1
                raise failure
            if not self.breaker.allow(endpoint):
                # This failure streak just opened the circuit — stop here
                # rather than probing it from inside one request's ladder.
                with self._lock:
                    self.stats.breaker_refusals += 1
                raise self.breaker.refusal(uri or op, endpoint=endpoint)
            probe = self.breaker.state_of(endpoint) == CIRCUIT_HALF_OPEN
            backoff = policy.backoff_seconds * (
                policy.backoff_multiplier ** (attempt - 1)
            )
            if policy.backoff_jitter > 0:
                with self._lock:
                    backoff *= 1.0 + policy.backoff_jitter * self._rng.random()
            with self._lock:
                self.stats.retries += 1
            if backoff > 0:
                if interruptible_wait(backoff, token=token) == "token":
                    raise token.interruption() from failure

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
            if (
                state == CIRCUIT_HALF_OPEN
                and interruptible_wait(_POLL_SECONDS, token=token)
                == "token"
            ):
                raise token.interruption()
        # A half-open circuit says yes to its one probe only.
        return self.breaker.state_of(endpoint) == CIRCUIT_HALF_OPEN

    def _race(
        self,
        op: str,
        uri: Optional[str],
        fn: Callable[..., T],
        token: CancellationToken,
        budget: RetryBudget,
    ) -> T:
        """One attempt off the calling thread: raced with a timeout and,
        once the latency tracker is warm, a hedged backup."""
        policy = self.policy
        endpoint = self.store.endpoint
        race = _Race()
        cancels: list[threading.Event] = []
        pool = self._pool()

        def launch(is_hedge: bool) -> None:
            cancel = threading.Event()
            cancels.append(cancel)
            with race.lock:
                race.pending += 1

            def run() -> None:
                try:
                    race.offer(fn(cancel=cancel, token=token), is_hedge)
                except BaseException as exc:  # noqa: BLE001 — forwarded to caller
                    race.offer_error(exc)

            pool.submit(run)

        started = self._clock()
        launch(is_hedge=False)
        hedge_at: Optional[float] = None
        if policy.hedge_enabled:
            baseline = self.latencies.percentile(
                policy.hedge_percentile, policy.hedge_min_samples
            )
            if baseline is not None:
                hedge_at = started + baseline * policy.hedge_multiplier
        timeout_at = (
            None
            if policy.request_timeout_seconds is None
            else started + policy.request_timeout_seconds
        )
        hedged = False
        try:
            while not race.event.wait(_POLL_SECONDS):
                if token.fired:
                    raise token.interruption()  # type: ignore[misc]
                now = self._clock()
                if timeout_at is not None and now >= timeout_at:
                    with self._lock:
                        self.stats.timeouts += 1
                    raise RemoteTransportError(
                        f"{op} timed out after "
                        f"{policy.request_timeout_seconds}s",
                        uri=uri,
                        endpoint=endpoint,
                    )
                if hedge_at is not None and not hedged and now >= hedge_at:
                    hedged = True
                    if budget.try_spend():
                        with self._lock:
                            self.stats.hedges += 1
                        launch(is_hedge=True)
                    else:
                        with self._lock:
                            self.stats.hedges_denied += 1
        finally:
            # Winner decided, timeout, or cancellation: every still-running
            # attempt is told to stop paying modeled latency.
            for cancel in cancels:
                cancel.set()
        with race.lock:
            won = race.won
            winner_hedge = race.winner_hedge
            result = race.result
            errors = list(race.errors)
        if won:
            if winner_hedge:
                with self._lock:
                    self.stats.hedge_wins += 1
            self.latencies.record(self._clock() - started)
            return result  # type: ignore[return-value]
        raise errors[0] if errors else RemoteTransportError(
            f"{op}: all attempts abandoned", uri=uri, endpoint=endpoint
        )


__all__ = [
    "LatencyTracker",
    "RequestScope",
    "ResilientTransport",
    "TransportPolicy",
    "TransportStats",
]
