"""Shared fixtures: a tiny deterministic repository and both databases.

Everything session-scoped here is read-only for tests; tests that mutate
state build their own objects.
"""

from __future__ import annotations

import shutil
from contextlib import ExitStack

import numpy as np
import pytest

from repro.core import FAIL_FAST, IngestionCache, TwoStageExecutor
from repro.db import Database
from repro.db.types import parse_timestamp
from repro.ingest import (
    RepositoryBinding,
    eager_ingest,
    lazy_ingest_metadata,
    write_csv_timeseries,
)
from repro.mseed import FileRepository, RepositorySpec, generate_repository
from repro.serve import QueryService, TenantPolicy
from repro.testing.oracle import Reference


TINY_SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE", "BHZ"),
    days=2,
    sample_rate=0.05,
    samples_per_record=1000,
)


@pytest.fixture(scope="session")
def tiny_spec() -> RepositorySpec:
    return TINY_SPEC


@pytest.fixture(scope="session")
def tiny_repo(tmp_path_factory, tiny_spec) -> FileRepository:
    root = tmp_path_factory.mktemp("tiny_repo")
    generate_repository(root, tiny_spec)
    return FileRepository(root)


@pytest.fixture(scope="session")
def ei_db(tiny_repo) -> Database:
    """Eagerly loaded database (read-only across tests)."""
    db = Database()
    eager_ingest(db, tiny_repo)
    return db


@pytest.fixture(scope="session")
def ali_db(tiny_repo) -> Database:
    """Metadata-only database (read-only across tests)."""
    db = Database()
    lazy_ingest_metadata(db, tiny_repo)
    return db


@pytest.fixture(scope="session")
def reference(tiny_repo) -> Reference:
    """Eager ingestion of the tiny repository plus the wide-key tables: the
    differential oracle's reference (read-only across tests)."""
    return Reference(tiny_repo.root)


# The mixed repository's CSV member: ISK/BHZ beside the xSEED files of that
# channel, explicit times at a rate whose step is not a whole number of µs.
CSV_MEMBER = "2010/KO.ISK/KO.ISK..BHZ.2010.010.tscsv"
CSV_START = parse_timestamp("2010-01-10T03:00:00")
CSV_RATE = 0.03
CSV_SAMPLES = 2000


@pytest.fixture(scope="session")
def mixed_reference(tmp_path_factory, tiny_repo) -> Reference:
    """The tiny repository plus one CSV time series: a union over both
    formats, judged against eager ingestion of both."""
    root = tmp_path_factory.mktemp("mixed_repo") / "repo"
    shutil.copytree(tiny_repo.root, root)
    values = np.round(np.random.default_rng(7).normal(0, 800, CSV_SAMPLES), 2)
    write_csv_timeseries(
        root / CSV_MEMBER, "KO", "ISK", "", "BHZ", CSV_RATE, CSV_START, values
    )
    return Reference(root)


@pytest.fixture()
def fresh_ali_db(tiny_repo) -> Database:
    """A fresh metadata-only database for tests that mutate state."""
    db = Database()
    lazy_ingest_metadata(db, tiny_repo)
    return db


@pytest.fixture()
def executor(ali_db, tiny_repo) -> TwoStageExecutor:
    """A fresh two-stage executor per test (own cache and stats)."""
    return TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))


@pytest.fixture()
def engine():
    """Builds the engine a ``workers`` axis names over a repository: at 1 a
    standalone executor, which mounts inline; above it a started query
    service with that many scheduler workers, no batch window and the
    executor's default (DISCARD) cache — what ``repro query
    --mount-workers N`` builds. Both answer ``execute(sql, budget=...,
    cancellation=...)``. The services close at teardown."""
    def build(repository, workers=1, on_mount_error=FAIL_FAST, **settings):
        db = Database()
        lazy_ingest_metadata(db, repository)
        if workers == 1:
            return TwoStageExecutor(
                db, RepositoryBinding(repository),
                on_mount_error=on_mount_error, **settings,
            )
        settings.setdefault("cache", IngestionCache())
        return services.enter_context(QueryService(
            repository, db=db, mount_workers=workers,
            default_policy=TenantPolicy(on_mount_error=on_mount_error),
            batch_window_seconds=0.0, **settings,
        ))

    with ExitStack() as services:
        yield build


# The paper's Query 1, instantiated inside the tiny repository's data range.
QUERY1 = (
    "SELECT AVG(D.sample_value)\n"
    "FROM F JOIN R ON F.uri = R.uri\n"
    "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id\n"
    "WHERE F.station = 'ISK' AND F.channel = 'BHE'\n"
    "AND R.start_time > '2010-01-10T00:00:00.000'\n"
    "AND R.start_time < '2010-01-10T23:59:59.999'\n"
    "AND D.sample_time > '2010-01-10T10:00:00.000'\n"
    "AND D.sample_time < '2010-01-10T12:00:00.000'"
)

QUERY2 = (
    "SELECT D.sample_time, D.sample_value\n"
    "FROM F JOIN R ON F.uri = R.uri\n"
    "JOIN D ON R.uri = D.uri AND R.record_id = D.record_id\n"
    "WHERE F.station = 'ISK'\n"
    "AND R.start_time > '2010-01-10T00:00:00.000'\n"
    "AND R.start_time < '2010-01-10T23:59:59.999'\n"
    "AND D.sample_time > '2010-01-10T10:00:00.000'\n"
    "AND D.sample_time < '2010-01-10T10:30:00.000'"
)


@pytest.fixture(scope="session")
def query1() -> str:
    return QUERY1


@pytest.fixture(scope="session")
def query2() -> str:
    return QUERY2
