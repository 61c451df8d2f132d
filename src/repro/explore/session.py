"""Exploration sessions: query sequences with data-to-insight accounting.

§1's problem statement is temporal: "current database technology has a long
data-to-insight time". A session therefore tracks, per query and in total,
how long the explorer has been waiting — including the initialization
(ingestion) that happened before the first query could run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from ..db.database import QueryResult
from ..db.types import format_timestamp, parse_timestamp
from ..core.executor import TwoStageResult
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
    up-front), a :class:`~repro.core.executor.TwoStageExecutor` (the ALi
    world), or any other :class:`QueryEngine` — e.g. a
    :class:`~repro.serve.service.TenantClient`, which runs the session's
    queries through a shared multi-tenant service. The session API is
    identical — the paper's point that the querying front-end does not
    change — and so is the engine: the session runs queries through it and
    never re-configures it. Mount parallelism, the degradation policy, plan
    verification and query budgets are the engine's own settings.
    """

    engine: QueryEngine
    setup_seconds: float = 0.0  # ingestion time before the session began
    history: list[SessionEntry] = field(default_factory=list)

    def close(self) -> None:
        """Nothing to release: a session owns no thread or resource of its
        own (its engine is the caller's). Kept so callers that close every
        session they open need no special case."""

    def run(self, sql: str, note: str = "") -> QueryResult:
        started = time.perf_counter()
        outcome = self.engine.execute(sql)
        elapsed = time.perf_counter() - started
        if isinstance(outcome, TwoStageResult):
            result = outcome.result
            mounted = result.trace.counters["files_mounted"]
            cache_scans = result.trace.counters["cache_scans"]
            failures = len(outcome.mount_failures)
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
