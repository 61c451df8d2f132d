"""Experiment runners regenerating the paper's evaluation artifacts.

Each function mirrors one table/figure or text claim of §4 (see DESIGN.md's
per-experiment index). Reported times follow the paper's protocol: the
average of three identical runs, with COLD meaning all buffers flushed
before each run and HOT meaning buffers pre-loaded by running the same query
beforehand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Union

from ..core.cache import IngestionCache
from ..core.executor import TwoStageExecutor
from ..db.database import Database
from .setup import BenchEnvironment

Engine = Union[Database, TwoStageExecutor]


def _engine_db(engine: Engine) -> Database:
    """The engine's database: itself, or the one an executor (or a query
    service) runs against."""
    return engine if isinstance(engine, Database) else engine.db


def _execute_seconds(engine: Engine, sql: str) -> float:
    """One timed run: wall-clock CPU plus simulated disk seconds."""
    db = _engine_db(engine)
    io_before = db.buffers.stats.simulated_seconds
    started = time.perf_counter()
    engine.execute(sql)
    elapsed = time.perf_counter() - started
    return elapsed + (db.buffers.stats.simulated_seconds - io_before)


def run_cold(engine: Engine, sql: str, runs: int = 3) -> float:
    """Average of ``runs`` cold executions (buffers flushed before each)."""
    total = 0.0
    for _ in range(runs):
        _engine_db(engine).make_cold()
        total += _execute_seconds(engine, sql)
    return total / runs


def run_hot(engine: Engine, sql: str, runs: int = 3) -> float:
    """Average of ``runs`` hot executions (buffers pre-loaded by a warm-up
    run of the same query, as the paper does)."""
    _execute_seconds(engine, sql)  # warm-up
    total = 0.0
    for _ in range(runs):
        total += _execute_seconds(engine, sql)
    return total / runs


# -- Table 1 -------------------------------------------------------------------


@dataclass
class Table1Row:
    """"Dataset and sizes": records per table and storage footprints."""

    f_records: int
    r_records: int
    d_records: int
    mseed_bytes: int  # the file repository
    monetdb_bytes: int  # database storage after eager load, no indexes
    keys_bytes: int  # additional primary/foreign key index storage
    ali_bytes: int  # loaded metadata only


def run_table1(env: BenchEnvironment) -> Table1Row:
    return Table1Row(
        f_records=env.ei_report.files,
        r_records=env.ei_report.records,
        d_records=env.ei_report.samples,
        mseed_bytes=env.repository.total_bytes(),
        monetdb_bytes=env.ei_report.data_bytes,
        keys_bytes=env.ei_report.index_bytes,
        ali_bytes=env.ali_report.metadata_bytes,
    )


# -- Figure 3 ------------------------------------------------------------------


@dataclass
class Fig3Entry:
    """One bar of Figure 3."""

    query: str  # "Query 1" | "Query 2"
    system: str  # "Ei" | "ALi"
    state: str  # "COLD" | "HOT"
    seconds: float


def run_figure3(env: BenchEnvironment, runs: int = 3) -> list[Fig3Entry]:
    """All eight bars of Figure 3 ("Querying N files")."""
    entries: list[Fig3Entry] = []
    for query_name, sql in (
        ("Query 1", env.queries.query1),
        ("Query 2", env.queries.query2),
    ):
        for system, engine in (
            ("Ei", env.ei),
            ("ALi", env.fresh_executor()),
        ):
            entries.append(
                Fig3Entry(query_name, system, "COLD", run_cold(engine, sql, runs))
            )
            entries.append(
                Fig3Entry(query_name, system, "HOT", run_hot(engine, sql, runs))
            )
    return entries


# -- §4 text claims -----------------------------------------------------------------


@dataclass
class IngestionReport:
    """Up-front costs: the "orders of magnitude" initialization claim."""

    ei_load_seconds: float
    ei_index_seconds: float
    ali_load_seconds: float
    index_to_load_ratio: float
    speedup: float  # Ei total / ALi total
    ei_total_bytes: int
    ali_bytes: int
    space_ratio: float


def ingestion_report(env: BenchEnvironment) -> IngestionReport:
    ei, ali = env.ei_report, env.ali_report
    return IngestionReport(
        ei_load_seconds=ei.load_seconds,
        ei_index_seconds=ei.index_seconds,
        ali_load_seconds=ali.load_seconds,
        index_to_load_ratio=(
            ei.index_seconds / ei.load_seconds if ei.load_seconds else 0.0
        ),
        speedup=(
            ei.total_seconds / ali.load_seconds if ali.load_seconds else 0.0
        ),
        ei_total_bytes=ei.total_bytes,
        ali_bytes=ali.metadata_bytes,
        space_ratio=(
            ei.total_bytes / ali.metadata_bytes if ali.metadata_bytes else 0.0
        ),
    )


@dataclass
class SweepEntry:
    """One point of the data-of-interest sweep (best case → worst case)."""

    fraction: float
    files_of_interest: int
    seconds: float


def interest_sweep(
    env: BenchEnvironment,
    queries: list[tuple[float, str]],
    run: Callable[[Engine, str], float] | None = None,
) -> list[SweepEntry]:
    """Query time as the data of interest grows from none to the whole
    repository — §4: "query performance of ALi is dependent on the size of
    data of interest"."""
    entries = []
    for fraction, sql in queries:
        executor = env.fresh_executor(cache=IngestionCache())
        env.ali.make_cold()
        started = time.perf_counter()
        outcome = executor.execute(sql)
        elapsed = time.perf_counter() - started
        entries.append(
            SweepEntry(
                fraction=fraction,
                files_of_interest=outcome.breakpoint.n_files,
                seconds=elapsed + outcome.result.io.simulated_seconds,
            )
        )
    return entries
