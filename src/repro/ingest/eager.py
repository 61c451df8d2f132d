"""Eager ingestion (Ei) — the paper's baseline.

"In Ei, we extend MonetDB with the required functionality to understand
mSEED files, extract, and load their data into the database tables inside
the DBMS server. The entire input repository is loaded eagerly up-front" —
plus primary- and foreign-key index construction, timed separately because
the paper observes index building takes several times longer than loading.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..db.database import Database
from ..mseed.repository import FileRepository
from ._batches import metadata_batches, mounted_files_batch
from .formats import FormatRegistry, default_registry
from .lazy import metadata_pass
from .schema import ACTUAL_TABLE, FILE_TABLE, RECORD_TABLE, ensure_schema


@dataclass
class EagerLoadReport:
    """Accounting for one eager load — the Ei side of Table 1."""

    files: int
    records: int
    samples: int
    load_seconds: float
    index_seconds: float
    data_bytes: int  # in-database size without indexes ("MonetDB" column)
    index_bytes: int  # additional index storage ("+keys" column)

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.index_seconds

    @property
    def total_bytes(self) -> int:
        return self.data_bytes + self.index_bytes


def eager_ingest(
    db: Database,
    repository: FileRepository,
    registry: FormatRegistry | None = None,
    build_indexes: bool = True,
) -> EagerLoadReport:
    """Load the entire repository into ``db`` up-front (metadata + actual
    data), then build key indexes. Returns the load report."""
    registry = registry or default_registry()
    ensure_schema(db)
    started = time.perf_counter()

    # The metadata half is ALi's pass; every file is then mounted through
    # the extractor that read its headers.
    sources, block = metadata_pass(repository, registry)
    mounted = [extractor.mount(path, uri) for path, uri, extractor in sources]

    file_batch, record_batch = metadata_batches(block)
    db.catalog.table(FILE_TABLE).append(file_batch)
    db.catalog.table(RECORD_TABLE).append(record_batch)
    db.catalog.table(ACTUAL_TABLE).append(mounted_files_batch(mounted))
    load_seconds = time.perf_counter() - started

    index_seconds = 0.0
    if build_indexes:
        for table in (FILE_TABLE, RECORD_TABLE, ACTUAL_TABLE):
            index_seconds += db.build_key_indexes(table)

    return EagerLoadReport(
        files=file_batch.num_rows,
        records=record_batch.num_rows,
        samples=sum(m.num_rows for m in mounted),
        load_seconds=load_seconds,
        index_seconds=index_seconds,
        data_bytes=db.data_nbytes(),
        index_bytes=db.index_nbytes(),
    )
