"""The differential correctness oracle: every configuration answers what
eager ingestion answers.

The paper's claim is that two-stage execution with automated lazy ingestion
(ALi) returns what eager ingestion (Ei) returns, only sooner. This module
states that claim once, for every configuration the engine has:

* :class:`ConfigPoint` — one point of the configuration lattice;
* :class:`Engine` — the one way an engine is built from a point;
* :class:`FaultScript` — what goes wrong in a run: seeded faults, a setup
  fault, and events between queries;
* :func:`verdict` — the one judgement of an answer. It accepts rows equal to
  Ei's; a typed error naming a file or endpoint the run made fail; or a
  disclosed degradation whose rows equal Ei's over the surviving files;
* :class:`Reference` — Ei's answers, restricted on demand to the files a
  run left standing, plus the engine-independent leg: the same tables and
  two generated wide-key tables in stdlib :mod:`sqlite3`
  (:func:`sqlite_agrees`), so that a bug Ei and ALi share cannot hide.

:func:`run` drives one example — a short query sequence × a point × a
script — and returns the verdict clauses and rare paths it reached. The
hypothesis strategies that draw examples live with the tests
(``tests/test_oracle.py``); this package never imports hypothesis.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import sqlite3
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..core import (
    BULK,
    FAIL_FAST,
    SKIP_AND_REPORT,
    CacheGranularity,
    CachePolicy,
    IngestionCache,
    TwoStageExecutor,
)
from ..core.governor import CancellationToken
from ..core.metastore import MetadataStore
from ..db import ColumnDef, Database, DataType, TableSchema
from ..db.errors import (
    CircuitOpenError, ExecutionError, FileIngestError, QueryInterruptedError,
)
from ..db.types import parse_timestamp
from ..ingest import RepositoryBinding, eager_ingest, lazy_ingest_metadata
from ..ingest.schema import ACTUAL_TABLE, RECORD_TABLE, ensure_schema
from ..mseed import FileRepository
from ..remote import (
    FederatedRepository,
    RemoteRepository,
    SimulatedObjectStore,
    TransportPolicy,
)
from ..remote.transport import CIRCUIT_CLOSED
from ..serve import QueryService, TenantPolicy
from ..serve.scheduler import WORKER_THREAD_PREFIX
from .faults import (
    MID_STREAM_DISCONNECT,
    RECOVERABLE_KINDS,
    RECOVERABLE_NETWORK_KINDS,
    SHORT_READ,
    STALE_FLIP,
    TRANSIENT_OSERROR,
    FaultPlan,
    FaultSpec,
)

# Holds about two of the tiny repository's files: LRU evicts.
CACHE_BYTES = 256 * 1024
_CACHES = {
    "discard": (CachePolicy.DISCARD, CacheGranularity.FILE),
    "unbounded-file": (CachePolicy.UNBOUNDED, CacheGranularity.FILE),
    "unbounded-tuple": (CachePolicy.UNBOUNDED, CacheGranularity.TUPLE),
    "lru": (CachePolicy.LRU, CacheGranularity.FILE),
}
CACHES = tuple(_CACHES)
METASTORES = ("none", "cold", "warm", "stale")
SOURCES = ("local", "remote", "federated")
# A repository may mix formats: xSEED volumes and CSV time series.
SUFFIXES = (".xseed", ".tscsv")
ENDPOINT = "seis-eu"
# The remote transport's breaker cools down this fast, so an endpoint that
# comes back is probed (half-open) by the next query. It counts failed
# attempts endpoint-wide: concurrent first attempts that a recoverable plan
# resets would open the default three-failure circuit. Nine is more than the
# one fault each of the tiny repository's eight files can add up to. A
# file's mount in an outage is one ladder of requests, and the transport
# alone retries it: one attempt more than the threshold, so that ladder
# opens the circuit and its last retry meets the refusal.
BREAKER_COOLDOWN = 0.02
BREAKER_FAILURES = 9
TRANSPORT = TransportPolicy(
    max_attempts=BREAKER_FAILURES + 1, backoff_seconds=0.0,
    breaker_failures=BREAKER_FAILURES, breaker_cooldown_seconds=BREAKER_COOLDOWN,
)


@dataclass(frozen=True)
class ConfigPoint:
    """One point of the configuration lattice: the settings an answer must
    not depend on. A first draft of an engine configuration; it does not
    replace the executor's arguments.

    ``tenants == 0`` is a standalone executor, which mounts inline
    (``mount_workers`` 1). With 1–3 tenants every query runs through one
    :class:`~repro.serve.QueryService`, once per tenant and concurrently;
    ``mount_workers`` is the service scheduler's worker count, and
    ``strategy`` / ``top_n`` keep the service executor's defaults.
    ``verify_plans`` forces plan verification on (off leaves the
    ``REPRO_VERIFY_PLANS`` default).
    """

    strategy: str = BULK
    mount_workers: int = 1
    selective: bool = True
    cache: str = "discard"
    metastore: str = "none"
    top_n: bool = True
    source: str = "local"
    tenants: int = 0
    on_mount_error: str = FAIL_FAST
    verify_plans: bool = False


@dataclass(frozen=True)
class FaultScript:
    """What goes wrong in one run; files by index into the sorted repository.

    ``rate`` of the files get one recoverable fault each, seeded by ``seed``
    and drawn from the network-shaped kinds when ``network``. ``victim``
    fails every read with ``victim_kind``. ``setup`` faults the session's
    start: ``"sidecar"`` short-reads the metastore (a reset, then live
    ingest) and ``"header"`` short-reads the victim's first header walk (the
    metadata pass names it). ``events[i]`` happens after query ``i``:

    * ``("touch" | "rewrite" | "delete", k)`` on the ``k``-th file that query
      was about (mod their count; of the repository when it was about none);
    * ``("outage", n)``: the endpoint is down for the next ``n`` queries
      (1–3) and back, its breaker cooled down, for the one after, which
      must answer as if it had never been down;
    * ``("cancel", _)``: the next query's second tenant is cancelled on the
      first read of an extraction, which fails once.
    """

    seed: int = 0
    rate: float = 0.0
    network: bool = False
    victim: Optional[int] = None
    victim_kind: str = TRANSIENT_OSERROR
    setup: Optional[str] = None
    events: tuple[Optional[tuple[str, int]], ...] = ()


def name_of(uri: str) -> str:
    """A file's name, the same for every source that serves it."""
    return uri.rsplit("/", 1)[-1]


def check(condition: bool, message: str) -> None:
    """Fail the oracle's judgement — an ``assert`` that ``-O`` keeps."""
    if not condition:
        raise AssertionError(message)


# -- the verdict --------------------------------------------------------------


def same_rows(
    got: Sequence[tuple], want: Sequence[tuple], names: Sequence[str],
    ordered: bool,
) -> None:
    """Multiset equality, or sequence equality when ORDER BY fixes the order.
    SUM / AVG columns match to 1e-9 relative (another summation order is
    legitimate); everything else exactly, NaN equal to NaN."""
    approx = [name.lower().startswith(("sum", "avg")) for name in names]

    def key(row: tuple) -> tuple:
        return tuple((1, 0) if v != v else (0, v) for v in row)

    if not ordered:
        got, want = sorted(got, key=key), sorted(want, key=key)
    check(len(got) == len(want), f"{len(got)} rows, expected {len(want)}")
    for got_row, want_row in zip(got, want):
        check(all(
            a == b or (a != a and b != b)
            or (close and math.isclose(a, b, rel_tol=1e-9))
            for a, b, close in zip(got_row, want_row, approx)
        ), f"row {got_row} != expected {want_row}")


def verdict(
    outcome: Any,
    expected: Callable[[frozenset], Any],
    ordered: bool,
    faulted: frozenset,
    skip: bool,
    cancelled: bool = False,
) -> str:
    """Accept one answer, naming the clause; raise AssertionError otherwise.

    ``outcome`` is a :class:`~repro.core.executor.TwoStageResult` or the
    exception the query raised. ``expected(failed)`` is Ei over every file
    but the names in ``failed`` (rows, or the error Ei itself raises);
    ``faulted`` holds the file names and endpoints the run made fail;
    ``cancelled`` says the query's own token was cancelled.
    """
    if isinstance(outcome, BaseException):
        if cancelled and isinstance(outcome, QueryInterruptedError):
            return "cancelled"
        named = {
            name_of(str(getattr(outcome, attr, None)))
            for attr in ("mount_uri", "uri", "endpoint")
        }
        if isinstance(outcome, FileIngestError) and named & faulted:
            return "typed error"
        want = expected(frozenset())
        if isinstance(want, ExecutionError) and type(outcome) is type(want):
            return "Ei's error"
        raise AssertionError(f"unaccepted error: {outcome!r}") from outcome
    failed = frozenset(map(name_of, outcome.mount_failures.uris()))
    check(
        not failed or (skip and failed <= faulted),
        f"undisclosable failures {sorted(failed)} (skip={skip})",
    )
    check(outcome.truncation is None, "an unbudgeted query was truncated")
    want = expected(failed)
    check(not isinstance(want, BaseException), f"Ei raised {want!r}")
    same_rows(outcome.rows, want, outcome.result.names, ordered)
    return "degradation" if failed else "rows"


# -- eager ingestion and the sqlite leg -----------------------------------------


class Reference:
    """Eager ingestion of the pristine repository at ``root``: the answers
    every configuration must give. ``W`` and ``V`` are added beside ``F``,
    ``R`` and ``D`` for the sqlite leg (see :func:`add_wide_tables`)."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        repository = FileRepository(self.root, SUFFIXES)
        self.files = repository.uris()  # relative paths, sorted
        self.names = [name_of(uri) for uri in self.files]
        self.db = Database()
        eager_ingest(self.db, repository)
        add_wide_tables(self.db)
        self._restricted: dict[frozenset, Database] = {frozenset(): self.db}
        self._answers: dict[tuple[str, frozenset], Any] = {}
        self._sqlite: Optional[sqlite3.Connection] = None

    def answer(self, sql: str, without: frozenset = frozenset()) -> Any:
        """Ei's rows for ``sql`` with the files named in ``without`` gone
        from ``D`` — or the error Ei raises."""
        if without not in self._restricted:
            db = self._restricted[without] = Database()
            ensure_schema(db)
            for table in self.db.catalog.tables():
                kept = table.batch
                if table.name == ACTUAL_TABLE:
                    uris = kept.column("uri").to_pylist()
                    kept = kept.filter(
                        np.array([name_of(u) not in without for u in uris])
                    )
                if not db.catalog.has_table(table.name):
                    db.create_table(table.schema)
                db.catalog.table(table.name).append(kept)
        key = (sql, without)
        if key not in self._answers:
            try:
                # Hash joins: Ei's key-index joins probe row by row.
                answer = self._restricted[without].execute(sql, use_indexes=False)
                self._answers[key] = answer.rows()
            except ExecutionError as exc:
                self._answers[key] = exc
        return self._answers[key]

    def agrees_with_sqlite(self, sql: str) -> str:
        """:func:`sqlite_agrees` over :attr:`db` and one sqlite copy of it,
        made on first use."""
        if self._sqlite is None:
            self._sqlite = self.sqlite()
        return sqlite_agrees(self.db, self._sqlite, sql)

    def record_starts(self) -> dict[str, list[int]]:
        """Each file's record start offsets, by file name (``R``)."""
        records = self.db.catalog.table(RECORD_TABLE).batch
        starts: dict[str, list[int]] = {name: [] for name in self.names}
        for uri, offset in zip(
            records.column("uri").to_pylist(),
            records.column("byte_offset").to_pylist(),
        ):
            starts[name_of(uri)].append(offset)
        return starts

    def sqlite(self) -> sqlite3.Connection:
        """Every table of :attr:`db` in an in-memory sqlite database."""
        conn = sqlite3.connect(":memory:", check_same_thread=False)
        types = {DataType.FLOAT64: "REAL", DataType.STRING: "TEXT"}
        for table in self.db.catalog.tables():
            columns = table.schema.columns
            declared = ", ".join(
                f"{c.name} {types.get(c.dtype, 'INTEGER')}" for c in columns
            )
            conn.execute(f"CREATE TABLE {table.name} ({declared})")
            conn.executemany(
                f"INSERT INTO {table.name} VALUES "
                f"({', '.join('?' * len(columns))})",
                table.batch.rows(),
            )
        conn.execute("CREATE INDEX d_key ON D (uri, record_id)")
        return conn


_TIMESTAMP_LITERAL = re.compile(r"'(\d{4}-\d\d-\d\d[T ][0-9:.]+)'")


def to_sqlite(sql: str) -> str:
    """The engine's SQL in sqlite's dialect: timestamp literals become the
    engine's integer microseconds, and ORDER BY places NULL (sqlite's NaN)
    where the engine places NaN — above every number."""
    sql = _TIMESTAMP_LITERAL.sub(lambda m: str(parse_timestamp(m.group(1))), sql)
    head, order_by, order = sql.partition(" ORDER BY ")
    order, limit, count = order.partition(" LIMIT ")
    items = [
        item + (" NULLS FIRST" if item.endswith(" DESC") else " NULLS LAST")
        for item in order.split(", ")
    ]
    return head + (order_by + ", ".join(items) + limit + count) * bool(order_by)


def sqlite_agrees(db: Database, conn: sqlite3.Connection, sql: str) -> str:
    """Assert that ``db`` and sqlite give ``sql`` the same answer; returns
    which kind of answer it was. sqlite's NULL (an aggregate over no rows,
    or a NaN it stored) reads as the engine's convention for the column:
    0 for SUM and integers, "" for strings, NaN for other floats."""
    try:
        result = db.execute(sql)
    except ExecutionError as exc:
        try:
            conn.execute(to_sqlite(sql)).fetchall()
        except sqlite3.Error:
            return "both raise"
        raise AssertionError(f"only the engine raised: {exc!r}") from exc
    conventions = [
        0.0 if name.startswith("sum") and column.dtype is DataType.FLOAT64
        else math.nan if column.dtype is DataType.FLOAT64
        else "" if column.dtype is DataType.STRING
        else 0
        for name, column in zip(result.names, result.batch.columns)
    ]
    want = [
        tuple(c if v is None else v for v, c in zip(row, conventions))
        for row in conn.execute(to_sqlite(sql)).fetchall()
    ]
    same_rows(result.rows(), want, result.names, " ORDER BY " in sql)
    return "rows" if want else "empty"


# Wide-key tables. Every key column of W has exactly WIDE_CARD distinct
# values, a power of two, so a product of six cardinalities that wrapped
# int64 would alias whole key tuples; W's twin rows differ from another row
# in one key only, by the WIDE_CARD // 4 ranks such a wrap aliases.
WIDE_KEYS = ("k0", "k1", "k2", "k3", "k4", "k5")
WIDE_CARD = 1 << 11
_INT64 = np.iinfo(np.int64)
_KEY_VALUES = (  # rank -> value, increasing: near both int64 bounds, ±2**53
    lambda rank: int(_INT64.min) + rank,
    lambda rank: int(_INT64.max) - WIDE_CARD + 1 + rank,
    lambda rank: (1 << 53) - WIDE_CARD // 2 + rank,
    lambda rank: -(1 << 53) - WIDE_CARD + rank,
    lambda rank: rank,
    lambda rank: rank * 1_000_003 - (1 << 40),
)


def add_wide_tables(db: Database) -> None:
    """W: six INT64 keys, a small group key ``g``, a STRING ``s``, a FLOAT
    key ``x`` with NaN, a NaN-free FLOAT ``y``. V: a join partner sharing
    some of W's keys, a STRING dictionary only partly overlapping W's, and
    its own NaN keys. NaN sits in the key columns ``x`` only."""
    rng = np.random.default_rng(2013)
    ranks = [rng.permutation(WIDE_CARD).tolist() for _ in WIDE_KEYS]
    keyed = [list(key) for key in zip(*ranks)]
    for position in range(len(WIDE_KEYS)):
        for twin in map(list, keyed[: WIDE_CARD : 128]):
            twin[position] = (twin[position] + WIDE_CARD // 4) % WIDE_CARD
            keyed.append(twin)

    def floats(i: int, step: int, nan_every: int) -> float:
        return math.nan if i % nan_every == 0 else (i % step) * 0.5

    tables = {
        ("W", (*WIDE_KEYS, "g", "s", "x", "y")): [
            tuple(value(rank) for value, rank in zip(_KEY_VALUES, key))
            + (i % 7, f"w{i * 37 % 101:03d}", floats(i, 13, 11),
               (i * 7919 % 1001 - 500) / 8.0)
            for i, key in enumerate(keyed)
        ],
        ("V", ("g", "k1", "k2", "k4", "s", "x")): [
            (i % 5, _KEY_VALUES[1](i * 11 % WIDE_CARD),
             _KEY_VALUES[2](i * 5 % WIDE_CARD), i * 9 % (2 * WIDE_CARD),
             f"w{i * 3 % 101:03d}" if i % 4 else f"v{i:03d}", floats(i, 17, 5))
            for i in range(256)
        ],
    }
    types = {"s": DataType.STRING, "x": DataType.FLOAT64, "y": DataType.FLOAT64}
    for (name, columns), rows in tables.items():
        db.create_table(TableSchema(name, [
            ColumnDef(c, types.get(c, DataType.INT64)) for c in columns
        ]))
        db.insert_rows(name, rows)


# -- one engine per configuration point -----------------------------------------


class _Plan(FaultPlan):
    """A script's fault plan; it can also cancel a token on the next read,
    failing that read once (a reset connection)."""

    cancel_next: Optional[CancellationToken] = None

    def _before_read(
        self, uri: str, start: int, end: Optional[int]
    ) -> Optional[FaultSpec]:
        with self._lock:
            token, self.cancel_next = self.cancel_next, None
        if token is None:
            return super()._before_read(uri, start, end)
        token.cancel("tenant t1 cancelled during an extraction")
        return FaultSpec(uri, MID_STREAM_DISCONNECT)


def _bump_mtime(path: Path) -> None:
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


class Engine:
    """The engine a :class:`ConfigPoint` describes, over the repository at
    ``root``: its repository (local, remote or federated, behind
    :data:`ENDPOINT`), its metadata session (with the metastore the point
    asks for; ``setup`` faults that session's start), and a standalone
    executor or a started query service."""

    def __init__(
        self, point: ConfigPoint, root: Path, scratch: Path,
        setup: Optional[FaultPlan] = None,
    ) -> None:
        self.point, self.root = point, Path(root)
        self.stores: list[SimulatedObjectStore] = []
        self.remotes: list[RemoteRepository] = []
        self.repository = self._repository()
        self.metastore, self.service = None, None
        if point.metastore != "none":
            sidecar = scratch / "metastore.json"
            if point.metastore != "cold":  # harvested by an earlier session
                lazy_ingest_metadata(
                    Database(), self._repository(),
                    metastore=MetadataStore(sidecar),
                )
                if point.metastore == "stale":
                    for path in sorted(self.root.rglob("*.xseed"))[::2]:
                        _bump_mtime(path)
            self.metastore = MetadataStore(sidecar)
        self.db = Database(verify_plans=point.verify_plans or None)
        try:
            with (setup or FaultPlan([])).install():
                if self.metastore is not None:
                    self.metastore.load()
                lazy_ingest_metadata(
                    self.db, self.repository, metastore=self.metastore
                )
        except FileIngestError:
            self.close()
            raise
        self.remote_names = {
            name_of(uri) for remote in self.remotes for uri in remote.uris()
        }
        policy, granularity = _CACHES[point.cache]
        self.cache = IngestionCache(
            policy, granularity,
            CACHE_BYTES if policy is CachePolicy.LRU else None,
        )
        settings = dict(cache=self.cache, selective_mounts=point.selective)
        if point.tenants:
            self.service = QueryService(
                self.repository, db=self.db, mount_workers=point.mount_workers,
                default_policy=TenantPolicy(on_mount_error=point.on_mount_error),
                batch_window_seconds=0.005,
                **settings,
            ).start()
            self.executor = self.service._executor
        else:
            self.executor = TwoStageExecutor(
                self.db, RepositoryBinding(self.repository),
                strategy=point.strategy,
                on_mount_error=point.on_mount_error,
                top_n_pushdown=point.top_n, **settings,
            )
        # Every Top-N execution arms a monitor; an unsafe one means a re-run.
        self.monitors: list = []
        arm = self.executor._top_n_termination

        def armed(*args: Any) -> Any:
            termination = arm(*args)
            self.monitors += [termination[0]] if termination else []
            return termination

        self.executor._top_n_termination = armed

    def _repository(self) -> Any:
        def remote(root: Path) -> RemoteRepository:
            self.stores.append(SimulatedObjectStore(ENDPOINT, root))
            self.remotes.append(RemoteRepository(self.stores[-1], policy=TRANSPORT))
            return self.remotes[-1]

        if self.point.source == "local":
            return FileRepository(self.root, SUFFIXES)
        if self.point.source == "remote":
            return remote(self.root)
        # Federated: the last station's directory behind the endpoint.
        *local, far = sorted({p.parent for p in self.root.rglob("*.xseed")})
        members = [FileRepository(directory, SUFFIXES) for directory in local]
        return FederatedRepository(members + [remote(far)])

    def run(self, sql: str, plan: _Plan, cancel: bool = False) -> list:
        """``sql`` once per tenant (once, standalone), concurrently;
        ``cancel`` has ``plan`` cancel the second tenant on the next read.
        Returns (outcome, cancelled) pairs, an outcome being the result or
        the exception raised, and whether that query's token fired."""
        if self.service is None:
            return [(_outcome(self.executor.execute, sql), False)]
        token = CancellationToken()
        plan.cancel_next = token if cancel else None
        futures = [
            self.service.client(f"t{tenant}").submit(
                sql, cancellation=token if tenant == 1 else None
            )
            for tenant in range(self.point.tenants)
        ]
        outcomes = [_outcome(Future.result, future) for future in futures]
        plan.cancel_next = None
        return [(o, t == 1 and token.fired) for t, o in enumerate(outcomes)]

    def counters(self) -> dict[str, int]:
        """The existing counters that say which rare paths a run reached
        and what the endpoint was asked."""
        metastore = self.metastore.stats if self.metastore else None
        totals = self.executor.totals()
        return {
            "stale-signature remount": totals["stale_remounts"],
            "cache fallback": totals["fallback_mounts"],
            "412 between two GETs": sum(
                s.stats.precondition_failed for s in self.stores
            ),
            "torn GET": sum(s.stats.torn for s in self.stores),
            "requests": sum(r.transport.stats.requests for r in self.remotes),
            "failed requests": sum(
                r.transport.stats.failures for r in self.remotes
            ),
            "open breakers": sum(
                r.transport.breaker.state != CIRCUIT_CLOSED for r in self.remotes
            ),
            "Top-N unsafe re-run": sum(not m.safe() for m in self.monitors),
            "sidecar reset": metastore.corrupt_loads if metastore else 0,
        }

    def assert_nothing_left_behind(self) -> None:
        """Mount transparency: no D rows in the database, nothing cached
        under DISCARD, no mount thread started by a standalone query, no
        orphaned task."""
        check(self.db.catalog.table(ACTUAL_TABLE).num_rows == 0, "D filled")
        check(
            self.point.cache != "discard" or len(self.cache) == 0,
            "DISCARD retained an entry",
        )
        check(
            self.cache.stats.current_bytes
            <= (self.cache.capacity_bytes or math.inf),
            "the cache outgrew its capacity",
        )
        if self.service is None:
            check(not any(
                t.name.startswith(WORKER_THREAD_PREFIX)
                for t in threading.enumerate()
            ), "a standalone query left a mount worker running")
        else:
            check(
                self.service.scheduler.pending_tasks() == 0,
                "the scheduler kept an orphaned task",
            )

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


def _outcome(call: Callable, *args: Any) -> Any:
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the verdict judges it
        return exc


# -- one example -----------------------------------------------------------------


def fault_plan(script: FaultScript, reference: Reference) -> _Plan:
    """The script's faults on the query path. Each seeded fault is keyed by
    a record start of its file, so it fires on the first read that covers
    that record: a whole-file mount's, a selective mount's when the record
    is selected, and for a network fault the GET that moves the record when
    nothing of the object is held yet."""
    # Half the network faults change the object mid-GET (a torn response,
    # then a 412 for whatever the retry presumed).
    kinds = (
        RECOVERABLE_NETWORK_KINDS + (STALE_FLIP,) * 3
        if script.network else RECOVERABLE_KINDS
    )
    specs = FaultPlan.seeded(
        script.seed, reference.record_starts(), kinds=kinds,
        fault_rate=script.rate, stall_seconds=0.005,
    ).specs
    if script.victim is not None and script.setup != "header":
        victim = reference.names[script.victim]
        specs.append(FaultSpec(victim, script.victim_kind, times=-1))
    return _Plan(specs)


# Rare paths a query took when their counter grew across it.
_COUNTED = (
    "stale-signature remount", "torn GET", "412 between two GETs",
    "Top-N unsafe re-run",
)


def _refused(outcome: Any) -> bool:
    """Whether the endpoint's open circuit refused ``outcome``'s query: it
    raised the refusal, or skipped a file for it."""
    if isinstance(outcome, CircuitOpenError):
        return outcome.endpoint == ENDPOINT
    return not isinstance(outcome, BaseException) and any(
        f.error == CircuitOpenError.__name__ and f.endpoint == ENDPOINT
        for f in outcome.mount_failures.failures
    )


def _probe_failed(
    engine: Engine, fired: Sequence[Any], before: dict, outcomes: list
) -> bool:
    """Whether a seeded fault failed the probe a query sent: one of the
    faults ``fired`` during the query hit a remote object, a request
    failed, and the circuit that failure re-opened refused the query."""
    return (
        any(name_of(f.uri) in engine.remote_names for f in fired)
        and engine.counters()["failed requests"] > before["failed requests"]
        and any(_refused(outcome) for outcome, _ in outcomes)
    )


def _event(script: FaultScript, index: int) -> tuple[Optional[str], int]:
    """The event between query ``index - 1`` and query ``index``."""
    if 0 < index <= len(script.events) and script.events[index - 1]:
        return script.events[index - 1]
    return None, 0


def run(
    reference: Reference,
    queries: Sequence[str],
    workdir: Path,
    point: ConfigPoint = ConfigPoint(),
    script: FaultScript = FaultScript(),
) -> list[str]:
    """One example: copy the pristine repository into ``workdir``, build the
    engine ``point`` describes, run ``queries`` under ``script`` and judge
    every answer. Returns the verdict clause of each answer
    (``"verdict: …"``) and every rare path the run took, in order."""
    root = Path(workdir) / "repo"
    shutil.copytree(reference.root, root)
    path_of = {Path(rel).name: root / rel for rel in reference.files}
    names = reference.names
    skip = point.on_mount_error == SKIP_AND_REPORT
    reached: list[str] = []
    faulted = set() if script.victim is None else {names[script.victim]}
    setup = None
    if script.setup == "sidecar":
        setup = FaultPlan([FaultSpec("metastore.json", SHORT_READ)])
    elif script.setup == "header" and faulted:
        setup = FaultPlan([FaultSpec(names[script.victim], SHORT_READ)])
    try:
        engine = Engine(point, root, Path(workdir), setup)
    except FileIngestError as exc:
        check(script.setup == "header", f"setup failed: {exc!r}")
        clause = verdict(exc, lambda _: [], False, frozenset(faulted), skip)
        return [f"verdict: {clause}", "vector parse -> scalar oracle"]
    if engine.counters()["sidecar reset"]:
        reached.append("sidecar reset")
    if engine.remote_names & faulted:
        # A remote file failing every read is its endpoint failing.
        faulted |= engine.remote_names | {ENDPOINT}
    deleted: set[str] = set()
    outage: set[str] = set()  # what only the outage made fail
    back_at = None  # the query the endpoint is back for
    probe = False  # whether the endpoint's next request is its probe
    used, plan, before = names, fault_plan(script, reference), engine.counters()
    try:
        with plan.install():
            for index, sql in enumerate(queries):
                if index == back_at:
                    for store in engine.stores:
                        store.set_down(False)
                    threading.Event().wait(BREAKER_COOLDOWN)  # half-open
                    faulted -= outage
                    probe = True
                    reached.append("answer after an outage")
                action, target = _event(script, index)
                path = path_of[used[target % len(used)]]
                if action in ("touch", "rewrite", "delete") and path.exists():
                    if action == "rewrite":
                        path.write_bytes(path.read_bytes())
                    if action == "delete":
                        path.unlink()
                        deleted.add(path.name)
                    else:
                        _bump_mtime(path)
                if action == "outage":
                    for store in engine.stores:
                        store.set_down()
                    outage = (engine.remote_names | {ENDPOINT}) - faulted
                    faulted |= outage
                    back_at = index + max(1, target)
                before, fired = engine.counters(), len(plan.log)
                cancel = action == "cancel"
                outcomes = engine.run(sql, plan, cancel)
                if probe and engine.counters()["requests"] > before["requests"]:
                    # The endpoint's first request since the outage: its
                    # half-open probe when the outage opened its circuit.
                    # A failed probe re-opens the circuit by design, and
                    # the outage then lasts one query longer.
                    probe = False
                    if _probe_failed(engine, plan.log[fired:], before, outcomes):
                        faulted |= outage
                        back_at = index + 1
                for outcome, cancelled in outcomes:
                    clause = verdict(
                        outcome,
                        lambda failed: reference.answer(sql, failed | deleted),
                        " ORDER BY " in sql,
                        frozenset(faulted | deleted),
                        skip,
                        cancelled,
                    )
                    # Whether the cancelled tenant still answered is timing.
                    reached.append(
                        "tenant cancel during a shared extraction"
                        if cancelled else f"verdict: {clause}"
                    )
                    if not isinstance(outcome, BaseException) and (
                        outcome.trace.counters["template_hits"]
                    ):
                        # A kept compile answered: Ei (a fresh compile)
                        # judged it above, and sqlite judges Ei here.
                        reached.append("compile template hit")
                        reference.agrees_with_sqlite(sql)
                    if clause in ("rows", "degradation"):
                        interest = outcome.breakpoint.files_of_interest
                        used = sorted(map(name_of, interest)) or names
                        if {Path(u).suffix for u in interest} >= set(SUFFIXES):
                            reached.append("union of CSV and xSEED branches")
                engine.assert_nothing_left_behind()
                after = engine.counters()
                reached += [p for p in _COUNTED if after[p] > before[p]]
                fell_back = after["cache fallback"] > before["cache fallback"]
                if deleted and fell_back:
                    reached.append("cache scan of a vanished file")
                if before["open breakers"] and not after["open breakers"]:
                    reached.append("breaker half-open probe")
    finally:
        engine.close()
    engine.assert_nothing_left_behind()
    return reached


def verdicts(reached: Sequence[str]) -> list[str]:
    """The verdict clauses among what :func:`run` reached."""
    return [r[len("verdict: "):] for r in reached if r.startswith("verdict: ")]
