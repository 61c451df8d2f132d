"""Simulated-clients driver: closed-loop load against a query service.

The paper's evaluation measures one scientist's console; a service is
justified by what happens when N scientists share the archive. This module
is the load harness behind ``benchmarks/bench_serve.py``:

* :func:`build_workload` — N clients × Q queries over one repository, built
  so clients *overlap* on files (every client's q-th query touches the same
  station/channel/day, hence the same file) while their answers differ
  (each client asks a distinct nested time window). That is the service's
  target regime: shared files of interest, private answers.
* :func:`run_service_load` — one thread per client, closed loop (a client
  issues its next query when the previous one returns), all clients
  released together off a barrier; per-query wall-clock latencies recorded.
* :func:`run_standalone_baseline` — the comparison the acceptance criterion
  names: the same workload as N *independent* sessions, each with its own
  executor and its own cache, so nothing is shared and every client pays
  for every file it touches.
* :func:`run_comparison` — both, plus the answer-identity check: every
  client's every answer must be byte-identical between the two runs (same
  rows, same order), while the service's aggregate mounted bytes come in
  below the independent sessions' total.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.cache import CachePolicy, IngestionCache
from ..core.executor import TwoStageExecutor
from ..db.database import Database
from ..db.types import format_timestamp, parse_timestamp
from ..ingest.schema import RepositoryBinding
from ..mseed.repository import FileRepository
from ..mseed.synthesize import RepositorySpec
from .service import QueryService, ServiceStats

_DAY_US = 86_400 * 1_000_000

Rows = tuple[tuple[object, ...], ...]


def _rows_query(
    station: str,
    channel: str,
    day_start_us: int,
    window_start_us: int,
    window_end_us: int,
) -> str:
    """Query 1's join shape, returning the window's raw samples (row-level
    answers make the byte-identical comparison meaningful; an AVG would
    collapse every discrepancy into one float)."""
    day_end_us = day_start_us + _DAY_US - 1_000
    return (
        "SELECT D.sample_time, D.sample_value\n"
        "FROM F JOIN R ON F.uri = R.uri\n"
        "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id\n"
        f"WHERE F.station = '{station}' AND F.channel = '{channel}'\n"
        f"AND R.start_time > '{format_timestamp(day_start_us)}'\n"
        f"AND R.start_time < '{format_timestamp(day_end_us)}'\n"
        f"AND D.sample_time > '{format_timestamp(window_start_us)}'\n"
        f"AND D.sample_time < '{format_timestamp(window_end_us)}'"
    )


def build_workload(
    spec: RepositorySpec,
    clients: int,
    queries_per_client: int,
    window_minutes: int = 40,
    stagger_seconds: int = 30,
) -> list[list[str]]:
    """Per-client query lists with shared files and private windows.

    Every client's q-th query targets the same ``(station, channel, day)``
    — one file — so concurrent clients pile onto the scheduler's task for
    it; client ``c`` then asks the nested window
    ``[base + c·stagger, base + span − c·stagger]``, so no two clients'
    answers are equal (each is a strict subset of client 0's rows).
    """
    if clients < 1 or queries_per_client < 1:
        raise ValueError("clients and queries_per_client must be >= 1")
    span_us = window_minutes * 60 * 1_000_000
    stagger_us = stagger_seconds * 1_000_000
    if 2 * (clients - 1) * stagger_us >= span_us:
        raise ValueError(
            "window too narrow: the last client's nested window is empty"
        )
    start_us = parse_timestamp(spec.start_day)
    pairs = [(s, ch) for s in spec.stations for ch in spec.channels]
    workload: list[list[str]] = [[] for _ in range(clients)]
    for q in range(queries_per_client):
        station, channel = pairs[q % len(pairs)]
        day_start = start_us + (q % spec.days) * _DAY_US
        base = day_start + 6 * 3600 * 1_000_000
        for c in range(clients):
            workload[c].append(
                _rows_query(
                    station,
                    channel,
                    day_start,
                    base + c * stagger_us,
                    base + span_us - c * stagger_us,
                )
            )
    return workload


@dataclass(frozen=True)
class QueryOutcome:
    """One client query's fate under load."""

    client: int
    index: int
    latency_seconds: float
    rows: Optional[Rows]  # None when the query errored
    error: Optional[str] = None


@dataclass
class LoadResult:
    """One run of one workload (service or standalone)."""

    outcomes: list[QueryOutcome]
    wall_seconds: float
    mount_bytes: int

    @property
    def latencies(self) -> list[float]:
        return sorted(o.latency_seconds for o in self.outcomes)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of per-query latency, q in [0, 100]."""
        latencies = self.latencies
        if not latencies:
            return 0.0
        rank = max(0, min(len(latencies) - 1, round(q / 100 * len(latencies)) - 1))
        return latencies[rank]

    def answers(self) -> dict[tuple[int, int], Optional[Rows]]:
        return {(o.client, o.index): o.rows for o in self.outcomes}


def run_service_load(
    service: QueryService, workload: list[list[str]]
) -> LoadResult:
    """Drive the workload through the service, one closed-loop thread per
    client (client ``c`` runs as tenant ``client-c``)."""
    service.start()
    bytes_before = service.total_mount_bytes
    outcomes: list[QueryOutcome] = []
    outcome_lock = threading.Lock()
    barrier = threading.Barrier(len(workload) + 1)

    def run_client(client: int, queries: list[str]) -> None:
        tenant = f"client-{client}"
        barrier.wait()
        for index, sql in enumerate(queries):
            started = time.perf_counter()
            rows: Optional[Rows] = None
            error: Optional[str] = None
            try:
                result = service.execute(sql, tenant=tenant)
                rows = tuple(tuple(r) for r in result.rows)
            except Exception as exc:  # noqa: BLE001 - recorded per query
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - started
            with outcome_lock:
                outcomes.append(
                    QueryOutcome(client, index, latency, rows, error)
                )

    threads = [
        threading.Thread(
            target=run_client, args=(c, queries), name=f"client-{c}"
        )
        for c, queries in enumerate(workload)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return LoadResult(
        outcomes=outcomes,
        wall_seconds=wall,
        mount_bytes=service.total_mount_bytes - bytes_before,
    )


def run_standalone_baseline(
    db: Database,
    repository: FileRepository,
    workload: list[list[str]],
) -> LoadResult:
    """The same workload as N truly independent sessions.

    Each client gets a fresh executor with its *own* unbounded cache —
    within one session repeated files are cached (a fair, competent
    baseline), but nothing crosses sessions, so every client pays the disk
    for every distinct file it touches. Clients run sequentially: the
    baseline's mounted-byte total is schedule-independent, and its
    latencies are each query's uncontended standalone cost.
    """
    outcomes: list[QueryOutcome] = []
    total_bytes = 0
    started_all = time.perf_counter()
    for client, queries in enumerate(workload):
        executor = TwoStageExecutor(
            db,
            RepositoryBinding(repository),
            cache=IngestionCache(policy=CachePolicy.UNBOUNDED),
        )
        for index, sql in enumerate(queries):
            started = time.perf_counter()
            rows: Optional[Rows] = None
            error: Optional[str] = None
            try:
                result = executor.execute(sql)
                rows = tuple(tuple(r) for r in result.rows)
            except Exception as exc:  # noqa: BLE001 - recorded per query
                error = f"{type(exc).__name__}: {exc}"
            outcomes.append(
                QueryOutcome(
                    client, index, time.perf_counter() - started, rows, error
                )
            )
        total_bytes += executor.totals()["bytes_read"]
    return LoadResult(
        outcomes=outcomes,
        wall_seconds=time.perf_counter() - started_all,
        mount_bytes=total_bytes,
    )


@dataclass
class ComparisonReport:
    """Service run vs N independent sessions over one workload."""

    clients: int
    queries_per_client: int
    service: LoadResult
    baseline: LoadResult
    service_stats: ServiceStats
    mismatches: list[tuple[int, int]] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.mismatches

    @property
    def bytes_savings_ratio(self) -> float:
        """Independent-sessions bytes / service bytes (higher is better)."""
        if self.service.mount_bytes <= 0:
            return float(self.baseline.mount_bytes > 0) or 1.0
        return self.baseline.mount_bytes / self.service.mount_bytes


def run_comparison(
    repository: FileRepository,
    spec: RepositorySpec,
    clients: int = 4,
    queries_per_client: int = 3,
    service: Optional[QueryService] = None,
    mount_workers: int = 2,
) -> ComparisonReport:
    """Build the overlapping workload, run it both ways, diff the answers.

    The baseline reuses the service's (read-only once loaded) database, so
    the two runs see identical metadata; it runs *after* the service load,
    which only warms the OS page cache in the baseline's favour.
    """
    workload = build_workload(spec, clients, queries_per_client)
    owns_service = service is None
    if service is None:
        service = QueryService(
            repository, mount_workers=mount_workers
        )
    try:
        service_result = run_service_load(service, workload)
        stats = service.stats()
        baseline_result = run_standalone_baseline(
            service.db, repository, workload
        )
    finally:
        if owns_service:
            service.close()
    served = service_result.answers()
    standalone = baseline_result.answers()
    mismatches = [
        key
        for key in sorted(standalone)
        if served.get(key) != standalone[key]
    ]
    return ComparisonReport(
        clients=clients,
        queries_per_client=queries_per_client,
        service=service_result,
        baseline=baseline_result,
        service_stats=stats,
        mismatches=mismatches,
    )
