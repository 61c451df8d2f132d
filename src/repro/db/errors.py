"""Error hierarchy for the repro database engine.

Every error raised on a user-visible path derives from :class:`DatabaseError`
so that callers can catch one type. Finer-grained subclasses distinguish the
layer that failed (parsing, binding, planning, execution, storage, catalog).
"""

from __future__ import annotations


class DatabaseError(Exception):
    """Base class for all errors raised by the repro database engine."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so front-ends can point at the problem.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BindError(DatabaseError):
    """A name in the query could not be resolved against the catalog."""


class TypeError_(DatabaseError):
    """An expression combines values of incompatible types."""


class PlanError(DatabaseError):
    """The logical plan is malformed or cannot be optimized/decomposed."""


class PlanInvariantError(PlanError):
    """A plan pass produced (or received) a plan violating an invariant.

    Raised by the plan verifier (:mod:`repro.db.plan.verify` and
    :mod:`repro.core.verify`). Carries the name of the pass whose output was
    being checked and the offending plan node, so a bad rewrite is caught at
    rewrite time with a precise location instead of surfacing as a wrong
    answer deep in stage 2.
    """

    def __init__(
        self,
        pass_name: str,
        message: str,
        node: object | None = None,
    ) -> None:
        detail = f"[{pass_name}] {message}"
        if node is not None:
            label = getattr(node, "label", None)
            where = label() if callable(label) else type(node).__name__
            detail = f"{detail} (at {where})"
        super().__init__(detail)
        self.pass_name = pass_name
        self.node = node


class ExecutionError(DatabaseError):
    """A physical operator failed while producing its result."""


class CatalogError(DatabaseError):
    """Catalog inconsistency: unknown/duplicate table, bad key definition."""


class StorageError(DatabaseError):
    """On-disk state is missing or corrupt."""


class IngestError(DatabaseError):
    """A repository file could not be extracted, transformed, or mounted."""


class FileIngestError(IngestError):
    """An ingest failure attributable to one repository file.

    The taxonomy the resilient-mounting path relies on: every error carries
    the offending ``uri``, the byte ``offset`` where extraction failed (when
    known), and the low-level ``cause``. ``transient`` marks failures worth
    retrying before the file is quarantined (e.g. a concurrent rewrite).
    ``endpoint`` names the remote endpoint a failure is attributable to
    (None for a local file). ``retries`` is how many retries the failure
    cost before it surfaced, counted by the retry ladder at whichever layer
    retried; ``restarts`` is how many of them restarted the whole
    extraction (set by the mount layer). ``mount_uri`` mirrors ``uri`` — it
    is the attribute the mount scheduler annotates onto foreign exceptions,
    so callers can read one name for both taxonomy and wrapped errors.
    """

    transient = False  # a subclass's default; ``transient=`` overrides it
    restarts = 0

    def __init__(
        self,
        message: str,
        *,
        uri: str | None = None,
        offset: int | None = None,
        cause: BaseException | None = None,
        transient: bool | None = None,
        endpoint: str | None = None,
        retries: int = 0,
    ) -> None:
        detail = f"{uri}: {message}" if uri else message
        if offset is not None:
            detail = f"{detail} (byte offset {offset})"
        super().__init__(detail)
        self.message = message
        self.uri = uri
        self.offset = offset
        self.cause = cause
        if transient is not None:
            self.transient = transient
        self.endpoint = endpoint
        self.retries = retries
        if uri is not None:
            self.mount_uri = uri

    def with_uri(self, uri: str) -> "FileIngestError":
        """A copy of this error annotated with the offending file's URI.

        Extraction layers that only see raw bytes raise without context; the
        format extractor (which knows the URI) re-raises through this.
        """
        if self.uri is not None:
            return self
        return type(self)(
            self.message,
            uri=uri,
            offset=self.offset,
            cause=self.cause if self.cause is not None else self,
            transient=self.transient,
            endpoint=self.endpoint,
            retries=self.retries,
        )


class CorruptFileError(FileIngestError):
    """The file's bytes do not form a valid payload (bad magic, malformed
    lengths, failed integrity checks, unparseable content)."""


class TruncatedFileError(FileIngestError):
    """The file ends before the content its headers promise."""


class StaleFileError(FileIngestError):
    """The file changed on disk while it was being read or after it was
    cached. Transient by default: re-reading observes the new version."""

    transient = True


class QueryAbortedError(DatabaseError):
    """The explorer (or a destiny policy) aborted the query at a breakpoint."""

    def __init__(self, message: str, breakpoint_info: object | None = None) -> None:
        super().__init__(message)
        self.breakpoint_info = breakpoint_info


class QueryInterruptedError(DatabaseError):
    """A running query was stopped by the governor mid-flight.

    Base of the two interruption flavours — caller-initiated cancellation
    and budget exhaustion — so front-ends can catch "the query did not run
    to completion, but nothing is broken" as one type. Deliberately *not*
    an :class:`IngestError`: interruptions must pass straight through the
    skip-and-report machinery instead of quarantining innocent files.
    """


class QueryCancelledError(QueryInterruptedError):
    """The caller cancelled the query through its cancellation token."""


class QueryBudgetExceeded(QueryInterruptedError):
    """A :class:`~repro.core.governor.QueryBudget` limit was exceeded.

    Raised under the ``on_budget="raise"`` policy (wall deadline, mounted
    bytes, or decoded records). ``truncation`` carries the structured
    :class:`~repro.core.governor.TruncationReport` when the governor had
    one at raise time.
    """

    def __init__(self, message: str, truncation: object | None = None) -> None:
        super().__init__(message)
        self.truncation = truncation


class QueryShedError(DatabaseError):
    """The query service refused to admit a query (per-tenant admission).

    Raised *before* any work happens — at submission time — when the
    tenant's queue depth is full or its aggregate mount-byte ledger is
    exhausted. Shedding at admission is what keeps one greedy tenant from
    queueing unbounded work against the shared scheduler; the caller can
    back off and resubmit. ``tenant`` names the tenant whose policy shed
    the query.
    """

    def __init__(self, message: str, tenant: str | None = None) -> None:
        if tenant is not None:
            message = f"tenant {tenant!r}: {message}"
        super().__init__(message)
        self.tenant = tenant


class CircuitOpenError(FileIngestError):
    """A remote endpoint's circuit refused the request for this file.

    Not transient: the whole point of the open state is to spend *zero*
    retry ladder on an endpoint that has repeatedly failed across queries.
    The circuit closes again via a half-open probe after its cooldown.

    ``endpoint`` names the refusing endpoint — the per-source attribution a
    federated :class:`~repro.core.mounting.MountFailureReport` carries.
    """


class RemoteTransportError(FileIngestError):
    """A remote request failed in transit (refused, reset, timed out).

    Transient by default — connection churn, packet loss, and latency-model
    timeouts are exactly what the resilient transport's retry ladder exists
    to absorb; one that leaves the transport has climbed that ladder and is
    final. ``endpoint`` names the remote endpoint for per-source degradation
    reporting.
    """

    transient = True


class RemoteObjectMissingError(RemoteTransportError):
    """The endpoint answered, but the requested object does not exist.

    *Not* transient: a missing object is a fact about the repository, not
    about the network — retrying cannot conjure it. (The remote analogue of
    a local ``FileNotFoundError`` at resolution time.)
    """

    transient = False
