"""The statistics catalog, memoised on the ``F`` table's batch identity."""

from __future__ import annotations

from typing import Optional

from .. import _sync
from ..db.database import Database
from ..db.stats import StatisticsCatalog, collect_statistics
from ..db.table import ColumnBatch
from ..ingest.schema import FILE_TABLE


@_sync.guarded
class StatisticsIndex:
    """``index()`` → the current :class:`~repro.db.stats.StatisticsCatalog`.

    Collecting statistics reads ``F``'s columns and indexes its URIs, so
    the snapshot is kept until ``F``'s batch object changes: lazy metadata
    ingestion replaces it (together with the other metadata batches), and
    identity tracks "has the metadata changed" without a version counter.
    One instance may serve concurrent queries — the query service shares
    one across its per-query executors, which would otherwise each start
    with an empty memo.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._lock = _sync.create_lock("StatisticsIndex._lock")
        self._source: Optional[ColumnBatch] = None  # guarded-by: _lock
        self._catalog: Optional[StatisticsCatalog] = None  # guarded-by: _lock

    def __call__(self) -> StatisticsCatalog:
        batch = (
            self.db.catalog.table(FILE_TABLE).batch
            if self.db.catalog.has_table(FILE_TABLE)
            else None
        )
        with self._lock:
            if self._catalog is None or self._source is not batch:
                self._catalog = collect_statistics(self.db.catalog, FILE_TABLE)
                self._source = batch
            return self._catalog
