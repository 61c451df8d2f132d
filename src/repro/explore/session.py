"""Exploration sessions: query sequences with data-to-insight accounting.

§1's problem statement is temporal: "current database technology has a long
data-to-insight time". A session therefore tracks, per query and in total,
how long the explorer has been waiting — including the initialization
(ingestion) that happened before the first query could run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol, Union, runtime_checkable

from ..db.database import Database, QueryResult
from ..db.types import format_timestamp, parse_timestamp
from ..core.prefetch import SessionPrefetcher
from ..core.executor import TwoStageExecutor, TwoStageResult
from ..core.governor import ON_BUDGET_RAISE, QueryBudget
from ..core.mounting import check_on_error
from .workload import make_query1, make_query2


@runtime_checkable
class QueryEngine(Protocol):
    """Anything a session can run SQL through.

    Satisfied by :class:`~repro.db.database.Database` (returns a
    :class:`~repro.db.database.QueryResult`), by
    :class:`~repro.core.executor.TwoStageExecutor` and by
    :class:`~repro.serve.service.TenantClient` (both return a
    :class:`~repro.core.executor.TwoStageResult`) — the paper's point that
    the querying front-end never changes, extended to the service layer:
    an explorer session runs unmodified against a shared multi-tenant
    service.
    """

    def execute(self, sql: str) -> Any:
        """Run one SQL query, returning a QueryResult or TwoStageResult."""
        ...  # pragma: no cover - protocol stub


@dataclass
class SessionEntry:
    """One executed query in the session history."""

    sql: str
    rows: int
    seconds: float  # wall CPU + simulated I/O
    files_mounted: int = 0
    cache_scans: int = 0
    mount_failures: int = 0  # files skipped under on_mount_error="skip"
    truncated: bool = False  # answer cut short by an on_budget="partial" trip
    note: str = ""


@dataclass
class ExplorationSession:
    """A stateful explorer session over any execution engine.

    ``engine`` is a plain :class:`Database` (the Ei world: everything loaded
    up-front), a :class:`TwoStageExecutor` (the ALi world), or any other
    :class:`QueryEngine` — e.g. a
    :class:`~repro.serve.service.TenantClient`, which runs the session's
    queries through a shared multi-tenant service. The session API is
    identical — the paper's point that the querying front-end does not
    change.

    ``mount_workers`` (the CLI's ``--mount-workers``) applies only to a
    two-stage engine: it sets the stage-2 mount parallelism for every query
    the session runs. ``None`` leaves the engine's own setting untouched.
    Likewise ``on_mount_error`` (the CLI's ``--on-mount-error``): ``"fail"``
    aborts a query on the first unreadable file, ``"skip"`` quarantines it
    and completes the query over the intact rest, recording the skip count
    per history entry. ``verify_plans`` (the CLI's ``--verify-plans``) turns
    on structural plan verification for every query; it applies to both
    engine kinds.
    """

    engine: QueryEngine
    setup_seconds: float = 0.0  # ingestion time before the session began
    history: list[SessionEntry] = field(default_factory=list)
    mount_workers: Union[int, None] = None
    on_mount_error: Union[str, None] = None
    verify_plans: Union[bool, None] = None
    # Session-wide query budget (two-stage engine only): the CLI's
    # --deadline-seconds / --max-mount-bytes / --on-budget. Every query the
    # session runs inherits it; None leaves the engine ungoverned.
    deadline_seconds: Union[float, None] = None
    max_mount_bytes: Union[int, None] = None
    max_decoded_records: Union[int, None] = None
    on_budget: str = ON_BUDGET_RAISE
    # Predictive prefetch (two-stage engine only, the CLI's --prefetch):
    # after each query, the workload predictor extrapolates the next window
    # from the session's interval history and warms the ingestion cache in
    # the background. `prefetcher` is injectable for tests (e.g. a
    # synchronous one); prefetch=True builds the default.
    prefetch: bool = False
    prefetcher: Optional[SessionPrefetcher] = None

    def __post_init__(self) -> None:
        if self.mount_workers is not None:
            if not isinstance(self.engine, TwoStageExecutor):
                raise ValueError(
                    "mount_workers applies only to a TwoStageExecutor engine"
                )
            if self.mount_workers < 1:
                raise ValueError("mount_workers must be >= 1")
            self.engine.mount_workers = self.mount_workers
        if self.on_mount_error is not None:
            if not isinstance(self.engine, TwoStageExecutor):
                raise ValueError(
                    "on_mount_error applies only to a TwoStageExecutor engine"
                )
            self.engine.on_mount_error = check_on_error(self.on_mount_error)
        if self.verify_plans is not None:
            self.engine.verify_plans = self.verify_plans
            if isinstance(self.engine, TwoStageExecutor):
                self.engine.db.verify_plans = self.verify_plans
        if (
            self.deadline_seconds is not None
            or self.max_mount_bytes is not None
            or self.max_decoded_records is not None
        ):
            if not isinstance(self.engine, TwoStageExecutor):
                raise ValueError(
                    "query budgets apply only to a TwoStageExecutor engine"
                )
            self.engine.budget = QueryBudget(
                deadline_seconds=self.deadline_seconds,
                max_mount_bytes=self.max_mount_bytes,
                max_decoded_records=self.max_decoded_records,
                on_budget=self.on_budget,
            )
        if self.prefetch or self.prefetcher is not None:
            if not isinstance(self.engine, TwoStageExecutor):
                raise ValueError(
                    "prefetch applies only to a TwoStageExecutor engine"
                )
            if self.prefetcher is None:
                self.prefetcher = SessionPrefetcher(
                    self.engine.mounts,
                    self.engine.statistics,
                    breaker=self.engine.breaker,
                )

    def close(self) -> None:
        """Stop the background prefetcher, if one is running."""
        if self.prefetcher is not None:
            self.prefetcher.close()

    def run(self, sql: str, note: str = "") -> QueryResult:
        started = time.perf_counter()
        outcome = self.engine.execute(sql)
        elapsed = time.perf_counter() - started
        if self.prefetcher is not None and isinstance(outcome, TwoStageResult):
            # Feed the predictor this query's fused time window; a confident
            # extrapolation warms the cache while the explorer reads the
            # answer. Runs after the query, so answers are never affected.
            self.prefetcher.observe(outcome.breakpoint.query_interval)
        if isinstance(outcome, TwoStageResult):
            result = outcome.result
            mounted = result.stats.files_mounted
            cache_scans = result.stats.cache_scans
            failures = len(outcome.timings.mount_failures)
            truncated = outcome.truncation is not None
        else:
            result = outcome
            mounted = 0
            cache_scans = 0
            failures = 0
            truncated = False
        self.history.append(
            SessionEntry(
                sql=sql,
                rows=result.num_rows,
                seconds=elapsed + result.io.simulated_seconds,
                files_mounted=mounted,
                cache_scans=cache_scans,
                mount_failures=failures,
                truncated=truncated,
                note=note,
            )
        )
        return result

    # -- explorer verbs ----------------------------------------------------------

    def quick_look(self, station: str, channel: str, day: str) -> Any:
        """First contact with potential data of interest: a whole-day STA."""
        day_start = parse_timestamp(day)
        day_end = day_start + 86_400 * 1_000_000 - 1_000
        sql = make_query1(
            station, channel, day,
            format_timestamp(day_start), format_timestamp(day_end),
        )
        return self.run(sql, note=f"quick look {station}/{channel} {day}").scalar()

    def zoom(
        self, station: str, day: str, window_start: str, window_end: str
    ) -> QueryResult:
        """Retrieve a waveform piece from all channels (the paper's Query 2)."""
        sql = make_query2(station, day, window_start, window_end)
        return self.run(sql, note=f"zoom {station} [{window_start}..{window_end}]")

    def average(
        self, station: str, channel: str, day: str,
        window_start: str, window_end: str,
    ) -> float:
        """Short-term average over a window (the paper's Query 1)."""
        sql = make_query1(station, channel, day, window_start, window_end)
        return float(self.run(sql, note="short-term average").scalar())

    # -- accounting ------------------------------------------------------------------

    @property
    def query_seconds(self) -> float:
        return sum(entry.seconds for entry in self.history)

    @property
    def data_to_insight_seconds(self) -> float:
        """Setup plus time until the *first* query answer — §1's headline."""
        first = self.history[0].seconds if self.history else 0.0
        return self.setup_seconds + first

    @property
    def total_seconds(self) -> float:
        """Setup plus the whole query sequence."""
        return self.setup_seconds + self.query_seconds

    def report(self) -> str:
        lines = [
            f"setup (ingestion): {self.setup_seconds:.3f}s",
            f"queries: {len(self.history)}, total {self.query_seconds:.3f}s",
            f"data-to-insight: {self.data_to_insight_seconds:.3f}s",
        ]
        for i, entry in enumerate(self.history):
            note = f" — {entry.note}" if entry.note else ""
            skipped = (
                f", {entry.mount_failures} files skipped"
                if entry.mount_failures
                else ""
            )
            truncated = " (truncated)" if entry.truncated else ""
            lines.append(
                f"  [{i}] {entry.seconds:.3f}s, {entry.rows} rows, "
                f"{entry.files_mounted} mounts, {entry.cache_scans} "
                f"cache-scans{skipped}{truncated}{note}"
            )
        return "\n".join(lines)
