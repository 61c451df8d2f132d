"""The mount machinery — ALi's extract/transform/ingest access path.

"The mount operator is responsible for ALi. It extracts, transforms (to
comply with database schema) and ingests actual data from individual
external files. … we make them accessible to the system as dangling partial
tables and unmount them after the query, unless we decide to cache them."

:class:`MountService` implements the engine's :class:`~repro.db.plan.physical.Mounter`
protocol: the physical ``PMount``/``PCacheScan`` operators call into it. The
mounted batch never enters the catalog — it flows through the plan as a
dangling partial table and is garbage once the query completes, unless the
ingestion cache retains it.

Failure handling
----------------
Repositories hold files the database does not control, so extraction can
fail mid-query: truncated volumes, corrupt Steim frames, files rewritten or
deleted between stage 1 and stage 2. Every such failure surfaces as a typed
:class:`~repro.db.errors.FileIngestError` naming the URI and byte offset,
and the service applies the query's *degradation policy* (a field of its
:class:`MountContext`):

* ``FAIL_FAST`` (default) — the first failure aborts the query, exactly the
  historical behaviour.
* ``SKIP_AND_REPORT`` — the offending file is quarantined, its union branch
  contributes zero rows (equivalent to rule (1) dropping the branch), and
  the query completes over the intact files with a
  :class:`MountFailureReport` listing every skipped file.

Each failure is retried by exactly one layer, on the engine's one
:class:`~repro.core.governor.RetryLadder`. A remote request is repeated by
its transport, and a :class:`~repro.db.errors.RemoteTransportError` that
leaves the transport is final here. The mount layer restarts a whole
extraction (:data:`RESTARTS`) only for what no request can repeat: a file
caught mid-rewrite (:class:`~repro.db.errors.StaleFileError`) and transient
local I/O. A file's failure is the query's own: nothing scores it across
queries, and the next query reads the file afresh. The one circuit is a
remote endpoint's, kept by its transport.

Every extraction takes one path: the repository hands over the bytes of
one version of the file (:meth:`~repro.mseed.repository.Repository.hold`)
and the format registry's extractor for the URI reads them. Staleness is
detected twice: the ingestion cache compares the ``(mtime_ns, size)``
signature recorded at store time on every cache-scan (a changed file is
invalidated and re-mounted, a deleted one invalidated and its error
surfaced), and :meth:`_extract` re-stats a file read in place after the
read, so a file rewritten *during* the read raises
:class:`~repro.db.errors.StaleFileError` rather than yielding torn rows.
Bytes a backend moved to hold them (a remote object's GET bodies) are the
version their responses answered, each GET conditional on the one before,
so nothing is asked after the read.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .. import _sync
from ..obs import MountSpan, QueryTrace
from ..db.buffer import BufferManager
from ..db.errors import (
    FileIngestError,
    IngestError,
    QueryBudgetExceeded,
    RemoteObjectMissingError,
    StaleFileError,
)
from ..db.expr import Expr
from ..db.interval import covers, interval_from_predicate, time_slice
from ..db.table import ColumnBatch
from ..ingest._batches import mounted_files_batch
from ..ingest.formats import (
    FormatExtractor,
    MountRequest,
    RecordSpan,
    SelectiveFormatExtractor,
)
from ..ingest.schema import ACTUAL_TABLE, TIME_COLUMN, RepositoryBinding
from .cache import (
    CacheGranularity,
    FileSignature,
    IngestionCache,
    Interval,
    WHOLE_FILE,
)
from .governor import (
    CancellationToken,
    QueryGovernor,
    RetryBudget,
    RetryLadder,
    RetryPolicy,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mseed.repository import Repository
    from ..serve.scheduler import SharedPoolClient

OnMountCallback = Callable[[str, ColumnBatch], None]

# Per-query degradation policies for mount failures.
FAIL_FAST = "fail"  # first failure aborts the query (default)
SKIP_AND_REPORT = "skip"  # quarantine the file, answer from the intact rest

ON_ERROR_POLICIES = (FAIL_FAST, SKIP_AND_REPORT)


# The mount layer's ladder: it restarts a whole extraction, for the failures
# `restartable` names. Every service shares it, and so its jitter stream.
RESTARTS = RetryLadder(RetryPolicy(backoff_seconds=0.01))


def restartable(exc: FileIngestError) -> bool:
    """Whether the mount layer restarts an extraction that failed with
    ``exc``: the file changed under the read, or local I/O failed
    transiently. A failure with an endpoint came out of a transport whose
    ladder already repeated the request."""
    return isinstance(exc, StaleFileError) or (
        exc.transient and exc.endpoint is None
    )


def check_on_error(policy: str) -> str:
    """``policy``, if it names a degradation policy; ``ValueError`` if not."""
    if policy not in ON_ERROR_POLICIES:
        raise ValueError(
            f"the mount-error policy must be one of {ON_ERROR_POLICIES}, "
            f"got {policy!r}"
        )
    return policy


@dataclass(frozen=True)
class MountFailure:
    """One quarantined file: what failed, where, and how hard we tried.

    ``endpoint`` names the remote endpoint the failure is attributable to,
    when there is one — the per-source attribution a federated query's
    degradation report needs ("everything behind ``archive-b`` failed"
    reads very differently from "these three files are corrupt").
    """

    uri: str
    error: str  # exception class name, e.g. "TruncatedFileError"
    message: str
    offset: Optional[int] = None  # byte offset of the failure, if known
    retries: int = 0  # transparent retries spent before quarantining
    endpoint: Optional[str] = None  # remote endpoint at fault, if any

    def describe(self) -> str:
        where = f" at byte {self.offset}" if self.offset is not None else ""
        tried = f" after {self.retries} retries" if self.retries else ""
        source = f" [endpoint {self.endpoint}]" if self.endpoint else ""
        return f"{self.uri}: {self.error}{where}{tried}{source}: {self.message}"


@dataclass
class MountFailureReport:
    """Every file a SKIP_AND_REPORT query answered *without*.

    Attached to :class:`~repro.core.executor.TwoStageResult`
    (``mount_failures``) so callers can tell a complete answer from a
    degraded one.
    """

    failures: list[MountFailure] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    def uris(self) -> list[str]:
        return [f.uri for f in self.failures]

    def endpoints(self) -> list[str]:
        """The remote endpoints implicated in the skips, sorted, deduped."""
        return sorted({f.endpoint for f in self.failures if f.endpoint})

    def describe(self) -> str:
        if not self.failures:
            return "no mount failures"
        lines = [f"{len(self.failures)} file(s) skipped:"]
        lines.extend(f"  {f.describe()}" for f in self.failures)
        return "\n".join(lines)


# interval_from_predicate moved to repro.db.interval (the plan verifier needs
# it below the core layer); re-exported here for compatibility.
__all__ = [
    "ExtractResult",
    "FAIL_FAST",
    "MountFailure",
    "MountContext",
    "MountFailureReport",
    "MountService",
    "ON_ERROR_POLICIES",
    "SKIP_AND_REPORT",
    "check_on_error",
    "interval_from_predicate",
]


class MountContext:
    """Everything about mounting that belongs to one query.

    Created where an execution starts and dropped when it ends; handed to
    :class:`MountService` with every call, so the service itself remembers
    no "current query" and any number of queries may mount through it at
    once. A call without a context runs under a fresh default one: no
    governor, fail-fast.

    ``governor`` enforces the budget and carries the cancellation token and
    the ``on_charge`` ledger hook; ``on_error`` is the degradation policy
    (:data:`FAIL_FAST` / :data:`SKIP_AND_REPORT`); ``pool`` is a query
    service's dispatch handle, a
    :class:`~repro.serve.scheduler.SharedPoolClient` of its mount scheduler
    — with one, :meth:`MountService.mount_file` consumes pre-extracted
    batches from it. Without one (a standalone execution) every branch is
    extracted inline, on the querying thread, under this context. The
    context charges the governor for what each branch consumed
    (:meth:`charge`), wherever the file was extracted. The quarantine and its
    :class:`MountFailureReport` live here, so a file that failed once is
    skipped for the rest of *this* query and gets a fresh chance in the
    next one.

    The context is also the scope a remote repository's requests run under:
    ``token`` interrupts their waits, and :meth:`retry_budget` is the one
    :class:`~repro.core.governor.RetryBudget` per endpoint all of the
    query's requests to it spend from. ``observed`` is what the breakpoint
    observed of the plan's cache-scanned files
    (:meth:`~repro.mseed.repository.Repository.signatures_of`), which each
    cache scan compares against instead of a ``stat`` or HEAD of its own.

    ``trace`` is the query's :class:`~repro.obs.QueryTrace`: the executor's
    stages, the plans' operators and the consumed mounts all record
    into it, and every mount-path event is counted once in its
    ``counters``, on the consuming thread. A query service names its
    tenant on it.
    """

    def __init__(
        self,
        governor: Optional[QueryGovernor] = None,
        on_error: str = FAIL_FAST,
    ) -> None:
        self.governor = governor
        self.on_error = check_on_error(on_error)
        self.pool: Optional["SharedPoolClient"] = None
        self.trace = QueryTrace()
        # Set at the breakpoint, read by the cache scans: the query's thread.
        self.observed: dict[str, FileSignature | IngestError] = {}
        # Backoff sleeps and request waits block on this token's event;
        # without a governor it is a token nobody holds, so it never fires.
        self.token = (
            governor.token if governor is not None else CancellationToken()
        )
        self._lock = _sync.create_lock("MountContext._lock")
        self.failure_report = MountFailureReport()  # guarded-by: _lock
        self._quarantined: set[str] = set()  # guarded-by: _lock
        self._retry_budgets: dict[str, RetryBudget] = {}  # guarded-by: _lock
        # The extraction each pool key was last charged for, while it lives.
        self._charged = weakref.WeakValueDictionary()  # guarded-by: _lock

    @property
    def skips(self) -> bool:
        """True under :data:`SKIP_AND_REPORT`: failures quarantine, not raise."""
        return self.on_error == SKIP_AND_REPORT

    def is_quarantined(self, uri: str) -> bool:
        with self._lock:
            return uri in self._quarantined

    def quarantine(self, uri: str, exc: IngestError) -> None:
        """Skip ``uri`` for the rest of this query; report it once."""
        if isinstance(exc, FileIngestError):
            failure = MountFailure(
                uri, type(exc).__name__, exc.message, exc.offset,
                exc.retries, exc.endpoint,
            )
        else:
            failure = MountFailure(uri, type(exc).__name__, str(exc))
        with self._lock:
            if uri in self._quarantined:
                return
            self._quarantined.add(uri)
            self.failure_report.failures.append(failure)

    def retry_budget(self, endpoint: str, attempts: int) -> RetryBudget:
        """This query's retry budget against ``endpoint``, created full (at
        the transport's ``attempts``) by the first request that asks."""
        with self._lock:
            if endpoint not in self._retry_budgets:
                self._retry_budgets[endpoint] = RetryBudget(attempts)
            return self._retry_budgets[endpoint]

    def charge(
        self, result: "ExtractResult", key: Optional[tuple[str, str]] = None
    ) -> None:
        """Count one consumed extraction into the trace and charge the
        governor for it: in plan order, on the consuming thread, so a budget
        trips at the same branch however many workers extracted ahead, and
        the bytes the trace counts are the bytes the governor was charged.
        Every extraction is charged once: a pool's result taken again for
        the same ``key`` ``(table, uri)`` (a self-join takes one extraction
        twice) is not charged again, and a re-extraction of a key (a Top-N
        re-run, a too-narrow result extracted afresh) is a new extraction.
        Raise-mode exhaustion raises here."""
        if key is not None:
            with self._lock:
                if self._charged.get(key) is result:
                    return
                self._charged[key] = result
        self.trace.counters += Counter(
            bytes_read=result.bytes_read,
            records_decoded=result.records_decoded,
            records_skipped=result.records_skipped,
            selective_mounts=result.selective,
            restarts=result.restarts,
        )
        if self.governor is not None:
            self.governor.charge_mount(result.bytes_read, result.records_decoded)


@dataclass(frozen=True)
class ExtractResult:
    """One file's extraction: the batch, its cost, and what it covers.

    ``coverage`` is the closed time interval the batch is complete for —
    whole-file for a full mount, the request's pruning interval for a
    selective one (the batch then holds every tuple of every record
    overlapping it, a superset of the tuples *inside* it).
    """

    batch: ColumnBatch
    io_seconds: float
    coverage: Interval = WHOLE_FILE
    bytes_read: int = 0
    records_decoded: int = 0
    records_skipped: int = 0
    selective: bool = False
    restarts: int = 0  # extractions :data:`RESTARTS` began again
    # The signature of the version extracted — the post-extraction stat's,
    # or the one the held bytes' responses answered — for the cache store,
    # instead of another stat/HEAD.
    signature: Optional[FileSignature] = None


# (uri, table_name) -> the file's record byte map from the R table, or None.
RecordMapProvider = Callable[[str, str], Optional[tuple[RecordSpan, ...]]]


@dataclass
class MountService:
    """Resolves mount/cache-scan access paths against file repositories.

    ``buffers`` (optional) charges simulated disk time for reading repository
    files: a file's first read in a connection pays the disk model, repeats
    are free — modeling the OS page cache that makes the paper's "hot" ALi
    runs cheap even though they re-mount every query.

    The service holds only what is true for every query; what belongs to
    one — governor, token, error policy, stage-2 pool, quarantine,
    retry budgets — arrives with each call as a :class:`MountContext`. So it
    is *reentrant* twice over: any number of queries may mount through it at
    once, and :meth:`_extract` may run concurrently on the workers of a
    query service's :class:`~repro.serve.scheduler.MountScheduler` (the
    buffer manager and the ingestion cache lock themselves; the service
    keeps no counters and holds no lock). Within one query everything stateful (cache stores,
    callbacks, counting, delivery) still happens on the calling thread, in
    plan order: what a worker's extraction read and decoded reaches the
    query's trace on the :class:`ExtractResult` it consumes.

    A stale file or transient local I/O restarts the extraction on
    :data:`RESTARTS` before the context's policy applies.
    """

    binding: RepositoryBinding
    cache: IngestionCache = field(default_factory=IngestionCache)
    buffers: Optional[BufferManager] = None
    # Selective mounting: push the fused predicate's time interval into
    # extraction so only overlapping records are read and decoded.
    selective: bool = True
    record_map_provider: Optional[RecordMapProvider] = field(
        default=None, repr=False
    )
    # uri -> the file's metadata time span, for the access-path cost choice:
    # a request interval covering the whole span makes the selective seek
    # ladder pure overhead, so the mount degrades to a plain full read. The
    # executor wires this from its statistics catalog.
    file_span_provider: Optional[Callable[[str], Optional[Interval]]] = field(
        default=None, repr=False
    )
    # unguarded-ok: callbacks are registered at wiring time, before any
    # concurrent mounting starts; workers only iterate the list.
    _callbacks: list[OnMountCallback] = field(default_factory=list)

    def add_mount_callback(self, callback: OnMountCallback) -> None:
        """Register a side-effect of mounting (e.g. derived metadata, §5)."""
        self._callbacks.append(callback)

    def retain(
        self, uri: str, result: "ExtractResult", interval: Interval
    ) -> ColumnBatch:
        """Store what a mount of ``interval`` keeps, and return it: the
        samples timed inside ``interval`` under tuple granularity, the whole
        extraction at its coverage otherwise."""
        # The extraction already observed the signature of what it read;
        # the entry is stored under it, not under another stat/HEAD.
        batch = result.batch
        if self.cache.granularity is CacheGranularity.TUPLE:
            batch = self._narrowed(batch, interval)
            self.cache.store(uri, batch, interval, signature=result.signature)
        else:
            self.cache.store(
                uri, batch, result.coverage, signature=result.signature
            )
        return batch

    # -- failure bookkeeping ---------------------------------------------------

    def _empty_branch(
        self, alias: str, predicate: Optional[Expr]
    ) -> ColumnBatch:
        """A zero-row D-layout batch: what a dropped union branch yields."""
        return self._deliver(mounted_files_batch([]), alias, predicate)

    def _truncated_branch(
        self, alias: str, predicate: Optional[Expr], context: MountContext
    ) -> ColumnBatch:
        """One branch dropped by a tripped partial-mode budget."""
        assert context.governor is not None
        context.governor.note_truncated_mount()
        context.trace.counters["budget_truncated_mounts"] += 1
        return self._empty_branch(alias, predicate)

    # -- Mounter protocol -----------------------------------------------------

    def request_for(
        self,
        uri: str,
        table_name: str,
        alias: str,
        predicate: Optional[Expr],
        context: Optional[MountContext] = None,
    ) -> Optional[MountRequest]:
        """The selective :class:`MountRequest` one mount branch implies.

        ``None`` means "mount the whole file" — selective mounting disabled,
        or the fused predicate does not bound the time column at all. The
        record byte map is attached when a provider is wired (the executor
        serves it from the ``R`` table) and the interval is non-empty. A
        request widened to the whole file is counted in ``context``'s trace
        (``whole_file_requests``): the mount passes its context, the
        executor registering the branch beforehand does not.
        """
        if not self.selective:
            return None
        interval = interval_from_predicate(predicate, f"{alias}.{TIME_COLUMN}")
        if interval == WHOLE_FILE:
            return None
        if self.file_span_provider is not None and interval[0] <= interval[1]:
            # Cost choice: when the interval covers the file's whole metadata
            # span, every record overlaps it — selective extraction would
            # read the same bytes through a seek ladder. Mount whole instead;
            # output is identical, delivery still applies the predicate.
            span = self.file_span_provider(uri)
            if span is not None and covers(interval, span):
                if context is not None:
                    context.trace.counters["whole_file_requests"] += 1
                return None
        records: Optional[tuple[RecordSpan, ...]] = None
        if self.record_map_provider is not None and interval[0] <= interval[1]:
            records = self.record_map_provider(uri, table_name)
        return MountRequest(interval=interval, records=records)

    def mount_file(
        self,
        uri: str,
        table_name: str,
        alias: str,
        predicate: Optional[Expr],
        context: Optional[MountContext] = None,
    ) -> ColumnBatch:
        if context is None:
            context = MountContext()
        governor = context.governor
        counters = context.trace.counters
        if governor is not None:
            # Budget checkpoint at branch entry: cancellation and raise-mode
            # exhaustion abort here; a tripped partial budget answers the
            # rest of the union empty (same shape as a dropped branch).
            governor.checkpoint()
            if governor.should_truncate:
                return self._truncated_branch(alias, predicate, context)
        if context.skips and context.is_quarantined(uri):
            counters["skipped_mounts"] += 1
            return self._empty_branch(alias, predicate)
        request = self.request_for(uri, table_name, alias, predicate, context)
        if request is not None and request.selects_nothing:
            # Contradictory conjuncts: the branch cannot produce rows, so
            # answer empty without touching the repository at all.
            counters["empty_interval_skips"] += 1
            return self._empty_branch(alias, predicate)
        try:
            result = self._obtain(uri, table_name, request, context)
        except QueryBudgetExceeded:
            # The budget tripped mid-extraction. Partial policy: this and
            # every later branch answer empty; raise policy: propagate
            # (never quarantined — the file did nothing wrong).
            if governor is None or not governor.partial:
                raise
            return self._truncated_branch(alias, predicate, context)
        except IngestError as exc:
            # Once per file and query: fail-fast raises, skip quarantines.
            if isinstance(exc, FileIngestError) and exc.restarts:
                counters["restarts"] += exc.restarts
            if not context.skips:
                raise
            context.quarantine(uri, exc)
            counters["skipped_mounts"] += 1
            return self._empty_branch(alias, predicate)
        batch = result.batch
        counters["files_mounted"] += 1
        counters["tuples_mounted"] += batch.num_rows

        if result.coverage == WHOLE_FILE:
            # Mount side-effects (derived metadata) summarize whole files;
            # feeding them a record-pruned batch would record wrong
            # summaries, so partial mounts skip them.
            for callback in self._callbacks:
                callback(uri, batch)

        interval = interval_from_predicate(predicate, f"{alias}.{TIME_COLUMN}")
        batch = self.retain(uri, result, interval)
        return self._deliver(batch, alias, predicate)

    def _obtain(
        self,
        uri: str,
        table_name: str,
        request: Optional[MountRequest],
        context: MountContext,
    ) -> "ExtractResult":
        """One branch's extraction, charged to the context's governor:
        inline on this thread under ``context`` — one ``mount`` span on
        worker 0 — or via the context's pool when it has one.

        The pool may have prefetched the file under a different (hull-merged)
        request; any coverage that satisfies this branch is accepted, and a
        result too narrow for it — only possible if prefetch and execution
        disagree, which the executor prevents — falls back to an inline
        re-extraction rather than returning incomplete rows.

        An inline extraction of a file the breakpoint observed (a cache
        scan's fallback) takes that observation as its own
        (``context.observed``): the first attempt asks nothing more.
        """
        observed = context.observed.get(uri)
        observed = None if isinstance(observed, IngestError) else observed
        if context.pool is None:
            started = time.perf_counter()
            result = self._extract(uri, table_name, request, observed, context)
            elapsed = time.perf_counter() - started
            context.trace.record(MountSpan(
                "mount", uri, start=started, seconds=elapsed,
                rows=result.batch.num_rows, extract_seconds=elapsed,
                io_seconds=result.io_seconds,
            ))
            context.charge(result)
            return result
        result = context.pool.take(uri, table_name, request)
        needed = WHOLE_FILE if request is None else request.interval
        if not covers(result.coverage, needed):
            result = self._extract(uri, table_name, request, observed, context)
        context.charge(result, (table_name, uri))
        return result

    def cache_scan(
        self,
        uri: str,
        table_name: str,
        alias: str,
        predicate: Optional[Expr],
        context: Optional[MountContext] = None,
    ) -> ColumnBatch:
        if context is None:
            context = MountContext()
        counters = context.trace.counters
        interval = interval_from_predicate(predicate, f"{alias}.{TIME_COLUMN}")
        # Another query's invalidation landing between the two reads is
        # counted as this one's: `stale_remounts` is a counter, no decision
        # hangs on it.
        invalidations_before = self.cache.stats.invalidations
        signature = self._current_signature(uri, table_name, context)
        cached = self.cache.lookup(uri, interval, signature=signature)
        if cached is None:
            # The plan expected a hit (rule (1) consulted the cache at
            # run-time optimization) but the entry is gone — either evicted,
            # or just invalidated because the file changed on disk or left
            # it. Fall back to a fresh mount either way: of a file that is
            # gone, it raises (or quarantines) the typed error.
            counters["fallback_mounts"] += 1
            if self.cache.stats.invalidations > invalidations_before:
                counters["stale_remounts"] += 1
            return self.mount_file(uri, table_name, alias, predicate, context)
        counters["cache_scans"] += 1
        return self._deliver(cached, alias, predicate)

    # -- internals ---------------------------------------------------------------

    def binding_for(self, table_name: str) -> RepositoryBinding:
        """The binding serving ``table_name``; only ``D`` has one."""
        if table_name.upper() != ACTUAL_TABLE:
            raise IngestError(
                f"actual table {table_name!r} has no repository binding"
            )
        return self.binding

    def _current_signature(
        self,
        uri: str,
        table_name: str,
        context: Optional[MountContext] = None,
    ) -> Optional[FileSignature]:
        """The file's current signature, for a cache lookup to compare
        against; None when there is nothing to compare with.

        What the breakpoint observed of the file (``context.observed``: one
        LIST per directory of a remote query's cache scans) answers when
        there is one, else the file is observed now (a local ``stat``, a
        remote HEAD). An answer from the breakpoint is as fresh as the
        breakpoint: a rewrite landing during stage 2 is the next query's to
        see, and this query's rows are wholly the version listed.

        A file that definitively does not exist (the ``stat`` says so, the
        endpoint answers 404, or a complete listing passes it over) has no
        version the cached rows could still be: its entries are invalidated
        here, so the lookup misses and the mount fallback raises — or
        quarantines — the typed error. A file that merely cannot be
        *observed* (an unreachable endpoint, at the scan or at the
        breakpoint) keeps its entries, and the lookup serves them
        uncompared: stale-but-available, like
        :meth:`RemoteRepository.uris`' remembered listing.
        """
        observed = None if context is None else context.observed.get(uri)
        try:
            if isinstance(observed, IngestError):
                raise observed
            repository = self.binding_for(table_name).repository
            return observed or repository.signature_of(uri, context)
        except (FileNotFoundError, RemoteObjectMissingError):
            self.cache.invalidate(uri)
            return None
        except (OSError, IngestError):
            return None

    def _extract(
        self,
        uri: str,
        table_name: str,
        request: Optional[MountRequest] = None,
        observed: Optional[FileSignature] = None,
        context: Optional[MountContext] = None,
    ) -> "ExtractResult":
        """Extract one file into a batch; thread-safe (a query service's
        scheduler workers call this concurrently). Returns the batch plus the simulated disk
        seconds the buffer manager charged and the extraction's coverage /
        read accounting; charges no budget (the consumer's context does).
        Without a ``context`` the extraction is a scope of its own:
        uncancellable, a fresh retry budget.

        ``observed`` is a signature of the file the caller fetched just now
        (the shared extraction path's cache lookup): the first attempt takes
        it as its pre-read observation instead of asking again — the
        staleness sandwich only widens; for a remote file it is what every
        GET of the attempt is conditional on — and a retry observes afresh.

        A stale file or transient local I/O restarts the extraction on
        :data:`RESTARTS` (see :func:`restartable`); the result counts the
        restarts in ``restarts``, and the final exception carries them in
        its ``restarts`` and the retries the file cost in ``retries``.
        Backoff waits on the context's cancellation token — not
        ``time.sleep`` — so a cancelled or deadline-expired query stops
        retrying immediately instead of sleeping out the rest of its
        ladder.
        """
        if context is None:
            context = MountContext()
        token = context.token
        token.raise_if_interrupted()
        # Everything source-specific goes through the repository's ``hold``,
        # whose requests run under ``context`` (token, retry budget); which
        # extractor reads the bytes is the registry's choice alone.
        binding = self.binding_for(table_name)
        assert binding.registry is not None
        extractor = binding.registry.for_path(uri)
        if request is not None and not isinstance(
            extractor, SelectiveFormatExtractor
        ):
            request = None
        restarts = 0

        def attempt(n: int) -> "ExtractResult":
            nonlocal restarts
            restarts = n  # attempt n follows n restarts
            before = observed if n == 0 else None
            return self._extract_once(
                uri, extractor, request, binding.repository, before, context, n
            )

        try:
            return RESTARTS.run(attempt, token=token, retryable=restartable)
        except FileIngestError as failure:
            failure.restarts = restarts
            raise

    def _extract_once(
        self,
        uri: str,
        extractor: FormatExtractor,
        request: Optional[MountRequest],
        repository: "Repository",
        before: Optional[FileSignature],
        context: MountContext,
        restarts: int,
    ) -> "ExtractResult":
        try:
            held = repository.hold(uri, request, before, context)
        except FileNotFoundError as exc:
            raise FileIngestError(
                f"file disappeared before extraction: {uri}",
                uri=uri,
                cause=exc,
            ) from exc
        if request is not None:
            mounted_sel = extractor.mount_selective(held.source, request)
            # What the backend moved to hold the bytes, when it moved them;
            # else what the extractor read in place.
            nbytes = mounted_sel.bytes_read if held.moved is None else held.moved
            mounted = mounted_sel.mounted
            coverage = request.interval
            records_decoded = mounted_sel.records_decoded
            records_skipped = mounted_sel.records_skipped
            io_seconds = 0.0
            # A partial read never marks the file resident — a later full
            # mount must still pay the disk model for the rest of it.
            if self.buffers is not None and nbytes > 0:
                io_seconds = self.buffers.touch_bytes(
                    f"repo:{uri}", nbytes, full=records_skipped == 0
                )
        else:
            nbytes = held.signature[1]
            io_seconds = self._touch_whole(uri, nbytes)
            mounted = extractor.mount(held.source)
            coverage = WHOLE_FILE
            records_decoded = mounted.records
            records_skipped = 0
        # Held bytes are the version their GETs answered: ``held.signature``
        # is the first response's, each later GET's ``if_match`` and the
        # last response's. A rewrite after that is the next cache scan's to
        # see. A file read in place is observed again, both ends of the
        # read bracketed.
        after = held.signature
        if held.moved is None:
            try:
                after = repository.signature_of(uri, context)
            except FileNotFoundError as exc:
                raise StaleFileError(
                    "file deleted during extraction",
                    uri=uri,
                    cause=exc,
                ) from exc
            if after != held.signature:
                raise StaleFileError(
                    "file changed on disk during extraction "
                    f"(mtime/size {held.signature} -> {after})",
                    uri=uri,
                )
        return ExtractResult(
            batch=mounted.batch,
            io_seconds=io_seconds,
            coverage=coverage,
            bytes_read=nbytes,
            records_decoded=records_decoded,
            records_skipped=records_skipped,
            selective=request is not None,
            restarts=restarts,
            signature=after,
        )

    def _touch_whole(self, uri: str, nbytes: int) -> float:
        """Charge one whole-file read to the buffer manager; returns the
        simulated disk seconds."""
        if self.buffers is None:
            return 0.0
        return self.buffers.touch(f"repo:{uri}", nbytes)

    @staticmethod
    def _narrowed(batch: ColumnBatch, interval: Interval) -> ColumnBatch:
        """What a tuple-granular cache entry covering ``interval`` keeps:
        the samples timed inside it, cut out of the record runs."""
        if interval == WHOLE_FILE:
            return batch
        return batch.within(TIME_COLUMN, *interval)

    @staticmethod
    def _deliver(
        batch: ColumnBatch, alias: str, predicate: Optional[Expr]
    ) -> ColumnBatch:
        """Qualify column names for the query plan and apply the fused
        selection (the combined select+mount / select+cache-scan paths).

        The predicate's exact bounds on the time column cut the batch — a
        record's samples are sliced out of its run, not masked row by row —
        and the rest of the predicate is evaluated on the columns it reads.
        """
        time_key = f"{alias}.{TIME_COLUMN}"
        qualified = ColumnBatch(
            [f"{alias}.{name}" for name in batch.names], batch.columns
        )
        interval, rest = time_slice(predicate, time_key)
        if interval is not None:
            qualified = qualified.within(time_key, *interval)
        if rest is not None:
            qualified = qualified.filter(rest.evaluate(qualified).values)
        return qualified
