"""Record byte maps, served as per-URI slices of the ``R`` table."""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

import numpy as np

from .. import _sync
from ..db.database import Database
from ..db.table import ColumnBatch
from ..ingest.formats import RecordSpan, record_spans
from ..ingest.schema import RECORD_TABLE

# R names a span's fields as RecordSpan does.
_SPAN_COLUMNS = tuple(field.name for field in fields(RecordSpan))


@_sync.guarded
class RecordMapIndex:
    """A ``record_map_provider``: ``(uri, table_name)`` → the file's byte map.

    A query asks for the maps of the few files it mounts, so only one argsort
    of ``R`` by (uri code, ``record_id``) is proportional to the repository,
    redone when ``R``'s batch object changes (metadata loads replace it). A
    file's map is a ``searchsorted`` slice of that order, turned into spans
    on first request and memoised. One instance may serve concurrent queries.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self._lock = _sync.create_lock("RecordMapIndex._lock")
        self._source: Optional[ColumnBatch] = None  # guarded-by: _lock
        self._order = np.empty(0, dtype=np.int64)  # guarded-by: _lock
        self._sorted_codes = np.empty(0, dtype=np.int32)  # guarded-by: _lock
        self._spans: dict[str, Optional[tuple[RecordSpan, ...]]] = {}  # guarded-by: _lock

    def __call__(
        self, uri: str, table_name: str
    ) -> Optional[tuple[RecordSpan, ...]]:
        """None when ``R`` is absent, lacks the byte columns, or has no rows
        for the file — selective extraction then walks headers itself."""
        if not self.db.catalog.has_table(RECORD_TABLE):
            return None
        batch = self.db.catalog.table(RECORD_TABLE).batch
        with self._lock:
            if self._source is not batch:
                if not {"uri", *_SPAN_COLUMNS} <= set(batch.names):
                    return None
                codes = batch.column("uri").values
                self._order = np.lexsort(
                    (batch.column("record_id").values, codes)
                )
                self._sorted_codes = codes[self._order]
                self._spans = {}
                self._source = batch
            if uri not in self._spans:
                code = batch.column("uri").dictionary.lookup(uri)
                lo, hi = (
                    np.searchsorted(self._sorted_codes, (code, code + 1))
                    if code is not None
                    else (0, 0)
                )
                rows = self._order[lo:hi]
                self._spans[uri] = record_spans(
                    *(batch.column(name).values[rows] for name in _SPAN_COLUMNS)
                ) or None
            return self._spans[uri]
