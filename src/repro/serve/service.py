"""The multi-query service: many sessions, one repository, shared work.

The paper frames ALi for the single scientist at a console; a facility
serves *many* scientists against one archive. :class:`QueryService` is that
deployment shape: one shared :class:`~repro.db.database.Database` (metadata
loaded once), one shared :class:`~repro.core.cache.IngestionCache`, one
:class:`~repro.serve.scheduler.MountScheduler` and one
:class:`~repro.core.executor.TwoStageExecutor` — every query still runs the
full two-stage pipeline through it, under a
:class:`~repro.core.mounting.MountContext` of its own that the service
builds from the tenant.

A query's life in the service:

1. **Admission** — the tenant's policy is consulted *before* any work:
   queue-depth shedding (too many in-flight queries for this tenant) and
   byte-ledger shedding (the tenant already consumed its total mount-byte
   allowance) both raise :class:`~repro.db.errors.QueryShedError`
   synchronously, on the submitting thread.
2. **Stage 1** — the executor runs the query's metadata stage and
   reaches the stage-1/stage-2 breakpoint with its files of interest.
3. **Scheduling** — instead of mounting inline on its own thread, the
   query's context carries a client of the service's shared
   :class:`~repro.serve.scheduler.MountScheduler`: the query's mount
   branches are registered with it (hull-merged with every other waiting
   query touching the same files) and the query parks until its files
   complete — each extraction feeding *every* waiter.
4. **Charging** — the query's context charges its governor at consume time
   for the bytes it uses (same ledger as standalone), and the governor's
   ``on_charge`` hook feeds the tenant's running byte ledger.

Tenant isolation is deliberate where it matters and shared where that is
the point: every tenant keeps its **own** policy and byte ledger, every
query its own budget, while the cache and scheduler are shared (their
concurrency story: cache stores are first-wins idempotent, scheduler tasks
single-flight per file).
A shared extraction that genuinely fails surfaces the same typed error to
every query waiting on that file — each query then applies its own
``on_mount_error`` policy, and the next query reads the file afresh.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

from .. import _sync
from ..core.cache import WHOLE_FILE, CachePolicy, CacheStats, IngestionCache
from ..core.executor import TwoStageExecutor, TwoStageResult
from ..core.governor import CancellationToken, QueryBudget, QueryGovernor
from ..core.mounting import (
    FAIL_FAST,
    ExtractResult,
    MountContext,
    check_on_error,
)
from ..db.database import Database
from ..db.errors import QueryShedError
from ..ingest.formats import MountRequest
from ..ingest.lazy import lazy_ingest_metadata
from ..ingest.schema import RepositoryBinding
from ..mseed.repository import Repository
from .scheduler import MountScheduler, SchedulerStats


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission control, built from the governance pieces.

    ``max_total_mount_bytes`` is the *tenant* ceiling — a running ledger
    across all of the tenant's queries, fed by each query's governor, that
    sheds new admissions once exhausted. ``max_queue_depth`` bounds the
    tenant's in-flight queries (submitted, not yet finished); exceeding it
    sheds instead of queueing, keeping one greedy tenant from occupying
    the service. ``on_mount_error`` is the tenant's degradation policy
    (:data:`~repro.core.mounting.FAIL_FAST` or
    :data:`~repro.core.mounting.SKIP_AND_REPORT`). A per-query ceiling is
    the ``budget`` of :meth:`QueryService.execute`.
    """

    max_queue_depth: Optional[int] = None
    max_total_mount_bytes: Optional[int] = None
    on_mount_error: str = FAIL_FAST

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if (
            self.max_total_mount_bytes is not None
            and self.max_total_mount_bytes < 0
        ):
            raise ValueError("max_total_mount_bytes must be >= 0")
        check_on_error(self.on_mount_error)


@dataclass
class TenantState:
    """One tenant's live accounting; mutated only under the service lock,
    handed out by :meth:`QueryService.stats` as a copy."""

    name: str
    policy: TenantPolicy
    in_flight: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    bytes_charged: int = 0
    records_charged: int = 0


@dataclass(frozen=True)
class ServiceStats:
    """One service lifetime's shared-work and admission story.

    ``scheduler`` carries the sharing win (``shared_grants`` /
    ``bytes_shared``) and the longest wait (``max_wait_seconds``);
    ``tenants`` the per-tenant admission ledgers, whose sums are the
    service's query counts; ``total_mount_bytes`` the bytes actually pulled
    off disk service-wide — the number the bench compares against N
    independent sessions.
    """

    scheduler: SchedulerStats
    cache: CacheStats
    tenants: tuple[TenantState, ...]
    total_mount_bytes: int

    @property
    def queries_completed(self) -> int:
        return sum(t.completed for t in self.tenants)

    @property
    def queries_failed(self) -> int:
        return sum(t.failed for t in self.tenants)

    @property
    def queries_shed(self) -> int:
        return sum(t.shed for t in self.tenants)

    def describe(self) -> str:
        lines = [
            f"queries: {self.queries_completed} completed, "
            f"{self.queries_failed} failed, {self.queries_shed} shed",
            f"mount bytes (actual disk): {self.total_mount_bytes}",
            f"shared grants: {self.scheduler.shared_grants} "
            f"(bytes re-served: {self.scheduler.bytes_shared})",
            f"max wait: {self.scheduler.max_wait_seconds:.3f}s",
            f"cache: {self.cache.hits} hits, {self.cache.misses} misses "
            f"({self.cache.hit_rate():.1%} hit rate), "
            f"{self.cache.duplicate_stores} duplicate stores",
        ]
        for tenant in self.tenants:
            lines.append(
                f"tenant {tenant.name!r}: {tenant.completed} ok, "
                f"{tenant.failed} failed, {tenant.shed} shed, "
                f"{tenant.bytes_charged} bytes charged"
            )
        return "\n".join(lines)


@_sync.guarded
class QueryService:
    """Admits concurrent queries against one shared repository + database.

    ``db`` may be passed pre-loaded (metadata already ingested); otherwise
    the service builds one and runs
    :func:`~repro.ingest.lazy.lazy_ingest_metadata` once — the catalog is
    read-only afterwards, which is what makes concurrent executions against
    the one database safe. The default cache policy is UNBOUNDED, not the
    paper's DISCARD: retaining mounted data across queries is half the
    service's sharing story (the scheduler is the other half, for queries
    *in flight* together).

    ``mount_workers`` sizes the shared scheduler's extraction pool —
    service-wide, not per query (a query's plan runs on the submitting
    thread and consumes from the shared scheduler). This is the engine's
    one way to extract files in parallel: a standalone executor mounts
    inline. ``batch_window_seconds`` is the longest a fresh task waits for
    co-arriving queries to join it (see
    :class:`~repro.serve.scheduler.MountScheduler`); 0 serves one caller
    with no wait, as ``repro query --mount-workers N`` does.
    """

    def __init__(
        self,
        repository: Repository,
        db: Optional[Database] = None,
        cache: Optional[IngestionCache] = None,
        default_policy: Optional[TenantPolicy] = None,
        batch_window_seconds: float = 0.02,
        mount_workers: int = 2,
        max_concurrent_queries: int = 8,
        selective_mounts: bool = True,
    ) -> None:
        if max_concurrent_queries < 1:
            raise ValueError("max_concurrent_queries must be >= 1")
        self.repository = repository
        if db is None:
            db = Database()
            lazy_ingest_metadata(db, repository)
        self.db = db
        self.cache = (
            cache
            if cache is not None
            else IngestionCache(policy=CachePolicy.UNBOUNDED)
        )
        self.default_policy = default_policy or TenantPolicy()
        self.max_concurrent_queries = max_concurrent_queries
        # The one pipeline every query runs through — and with it one mount
        # service, one byte-map index, one statistics memo. What differs
        # per query (tenant policy, budget, ledger, the scheduler
        # client) is the context _run_admitted hands its execute().
        self._executor = TwoStageExecutor(
            db,
            RepositoryBinding(repository),
            cache=self.cache,
            selective_mounts=selective_mounts,
        )
        self.scheduler = MountScheduler(
            self._shared_extract,
            workers=mount_workers,
            batch_window_seconds=batch_window_seconds,
        )
        self._lock = _sync.create_lock("QueryService._lock")
        self._tenants: dict[str, TenantState] = {}  # guarded-by: _lock
        self._pool: Optional[ThreadPoolExecutor] = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "QueryService":
        """Start the shared scheduler workers (idempotent)."""
        self.scheduler.start()
        return self

    def close(self) -> None:
        """Drain submitted queries, then stop the scheduler."""
        with self._lock:
            self._closed = True
            pool = self._pool
            self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)
        self.scheduler.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- tenants -------------------------------------------------------------

    def register_tenant(
        self, name: str, policy: Optional[TenantPolicy] = None
    ) -> TenantState:
        """Create (or fetch) a tenant; an explicit ``policy`` overrides the
        service default but never an existing registration."""
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = TenantState(
                    name=name, policy=policy or self.default_policy
                )
                self._tenants[name] = state
            return state

    def _admit(self, state: TenantState) -> None:
        """Admission control on the submitting thread; sheds synchronously."""
        policy = state.policy
        with self._lock:
            if self._closed:
                raise QueryShedError("service is closed", tenant=state.name)
            if (
                policy.max_queue_depth is not None
                and state.in_flight >= policy.max_queue_depth
            ):
                state.shed += 1
                raise QueryShedError(
                    f"queue depth {state.in_flight} at limit "
                    f"{policy.max_queue_depth}",
                    tenant=state.name,
                )
            if (
                policy.max_total_mount_bytes is not None
                and state.bytes_charged >= policy.max_total_mount_bytes
            ):
                state.shed += 1
                raise QueryShedError(
                    f"tenant mount-byte allowance exhausted "
                    f"({state.bytes_charged} >= "
                    f"{policy.max_total_mount_bytes})",
                    tenant=state.name,
                )
            state.in_flight += 1
            state.admitted += 1

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        tenant: str = "default",
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> TwoStageResult:
        """Admit and run one query on the calling thread."""
        state = self.register_tenant(tenant)
        self._admit(state)
        return self._run_admitted(state, sql, budget, cancellation)

    def submit(
        self,
        sql: str,
        tenant: str = "default",
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> "Future[TwoStageResult]":
        """Admit now (sheds raise here, synchronously), run on the service's
        worker pool; the returned future resolves to the
        :class:`~repro.core.executor.TwoStageResult` or the query's error."""
        state = self.register_tenant(tenant)
        self._admit(state)
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_concurrent_queries,
                    thread_name_prefix="serve-query",
                )
            pool = self._pool
        return pool.submit(
            self._run_admitted, state, sql, budget, cancellation
        )

    def client(self, tenant: str = "default") -> "TenantClient":
        """A session-compatible engine bound to one tenant."""
        self.register_tenant(tenant)
        return TenantClient(self, tenant)

    def _run_admitted(
        self,
        state: TenantState,
        sql: str,
        budget: Optional[QueryBudget],
        cancellation: Optional[CancellationToken],
    ) -> TwoStageResult:
        # The scheduler sizes its batch window by who is here to join it.
        self.scheduler.query_started(state.name)
        try:
            result = self._executor.execute(
                sql, context=self._open_context(state, budget, cancellation)
            )
        except BaseException:
            with self._lock:
                state.failed += 1
            raise
        else:
            with self._lock:
                state.completed += 1
            return result
        finally:
            with self._lock:
                state.in_flight -= 1
            self.scheduler.query_finished(state.name)

    def _open_context(
        self,
        state: TenantState,
        budget: Optional[QueryBudget],
        cancellation: Optional[CancellationToken],
    ) -> MountContext:
        """One admitted query's context, from its tenant: the policy's
        degradation mode, a governor over the call's budget whose charges
        feed the tenant ledger, and a scheduler client as stage 2's pool —
        consumed shared results charge this query's budget exactly as
        standalone extraction would.
        """

        def charge(bytes_read: int, records_decoded: int) -> None:
            with self._lock:
                state.bytes_charged += bytes_read
                state.records_charged += records_decoded

        governor = QueryGovernor(budget, token=cancellation, on_charge=charge)
        context = MountContext(
            governor=governor,
            on_error=state.policy.on_mount_error,
        )
        context.trace.tenant = state.name
        context.pool = self.scheduler.client(
            token=governor.token, trace=context.trace
        )
        return context

    # -- shared extraction ---------------------------------------------------

    def _shared_extract(
        self, uri: str, table_name: str, request: Optional[MountRequest]
    ) -> ExtractResult:
        """The shared scheduler's extraction function: cache first, then
        disk.

        A query's plan chooses mount vs cache-scan at *its* rewrite time;
        under concurrency another query's store often lands between one
        query's rewrite and its take. Re-checking the cache here — at the
        moment the work would actually run — is rule (1)'s cache preference
        applied late-bound, and it is what makes the service's byte savings
        robust to arrival order instead of depending on queries registering
        within one extraction's window. A cache-served result reports
        ``bytes_read=0``: no disk work happened, so neither the service
        total nor any consuming query's budget is charged for it.

        The task serves every query waiting on the file, so it runs under
        no one's context: no governor (each consumer's context charges its
        own, once per file it uses), and no query's token or retry budget.
        """
        mounts = self._executor.mounts
        interval = WHOLE_FILE if request is None else request.interval
        # The file's signature is asked for (a HEAD, for a remote one) only
        # to compare a cached batch against, so only when the cache holds
        # one. A batch that lands between the two reads was compared with
        # nothing observed for this request, and is left unserved.
        compare = self.cache.contains(uri, interval)
        signature = mounts._current_signature(uri, table_name) if compare else None
        cached = self.cache.lookup(uri, interval, signature=signature)
        if cached is not None and compare:
            return ExtractResult(batch=cached, io_seconds=0.0, coverage=interval)
        # The lookup's observation of the file, when it made one, is what
        # the extraction presumes current: the sandwich only wider.
        return mounts._extract(uri, table_name, request, observed=signature)

    # -- introspection -------------------------------------------------------

    @property
    def total_mount_bytes(self) -> int:
        """Bytes actually pulled off disk, service-wide: the shared
        scheduler's extractions, each counted once however many queries it
        served. The N-independent-sessions comparison number."""
        return self.scheduler.stats.bytes_read

    def stats(self) -> ServiceStats:
        with self._lock:
            tenants = tuple(replace(t) for t in self._tenants.values())
        return ServiceStats(
            scheduler=replace(self.scheduler.stats),
            cache=replace(self.cache.stats),
            tenants=tenants,
            total_mount_bytes=self.total_mount_bytes,
        )


@dataclass
class TenantClient:
    """One tenant's handle on the service — duck-compatible with the
    engines :class:`~repro.explore.session.ExplorationSession` accepts
    (``execute(sql) -> TwoStageResult``)."""

    service: QueryService
    tenant: str

    def execute(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> TwoStageResult:
        return self.service.execute(
            sql, tenant=self.tenant, budget=budget, cancellation=cancellation
        )

    def submit(
        self,
        sql: str,
        budget: Optional[QueryBudget] = None,
        cancellation: Optional[CancellationToken] = None,
    ) -> "Future[TwoStageResult]":
        return self.service.submit(
            sql, tenant=self.tenant, budget=budget, cancellation=cancellation
        )
