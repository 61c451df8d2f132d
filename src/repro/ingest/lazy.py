"""Lazy metadata-only ingestion — the setup phase of ALi.

"We load only metadata up-front. Files of interest are ingested in the
second stage of execution, wherever and whenever we need them." This module
is the *up-front* half: a header-only pass filling ``F`` and ``R``. The
per-query half (mounting) lives in :mod:`repro.core.mounting`.

With a :class:`~repro.core.metastore.MetadataStore` attached, the pass
becomes incremental across sessions: the repository is observed once, in
bulk (:meth:`~repro.mseed.repository.FileRepository.signatures` — one walk of
a local tree, one LIST for a whole remote endpoint), and a file whose
``(mtime_ns, size)`` signature matches the stored one reuses its persisted
``F``/``R`` rows — including the record byte map selective mounting needs —
without being touched again; only changed or new files pay the header walk,
files that have left the repository are dropped from the store, and the store
is re-saved if any of that changed it, so the next session inherits this
one's work. Signature drift always falls back to live extraction, so the rows
loaded are identical either way.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Sequence

from ..core.metastore import MetadataStore, StoredFileState
from ..db.database import Database
from ..mseed.repository import FileRepository
from ._batches import file_rows_batch, record_rows_batch
from .formats import (
    BatchFormatExtractor,
    ExtractedMetadata,
    FormatExtractor,
    FormatRegistry,
    default_registry,
)
from .schema import FILE_TABLE, RECORD_TABLE, ensure_schema


@dataclass
class LazyLoadReport:
    """Accounting for one metadata-only load — the ALi side of Table 1."""

    files: int
    records: int
    samples: int  # samples described by metadata, none of them ingested
    load_seconds: float
    metadata_bytes: int  # in-database size of F and R ("ALi" column)
    files_reused: int = 0  # files served from the metastore (no header walk)


def _observe(repository: FileRepository) -> dict[str, tuple[int, int]]:
    """Every URI's ``(mtime_ns, size)`` signature, in listing order."""
    signatures = getattr(repository, "signatures", None)
    if signatures is not None:
        return signatures()
    # A duck-typed repository without the bulk hook is asked file by file.
    signature_of = getattr(repository, "signature_of", None)
    observed = {}
    for uri in repository.uris():
        if signature_of is not None:
            observed[uri] = signature_of(uri)
        else:
            st = os.stat(repository.path_of(uri))
            observed[uri] = (st.st_mtime_ns, st.st_size)
    return observed


def metadata_pass(
    repository: FileRepository, registry: FormatRegistry, uris: Sequence[str]
) -> tuple[list[tuple[Path, str, FormatExtractor]], list[ExtractedMetadata]]:
    """The header-only pass over ``uris``: each one's ``(path, uri,
    extractor)`` and what that extractor read of it, both in the order given.

    URIs are resolved first — that reads nothing — and maximal runs of
    consecutive files with the same extractor are then extracted in one
    ``extract_metadata_many`` call when the extractor has one, file by file
    when not. The first defective file in the order given decides the error:
    a URI that does not resolve waits for the files before it.
    """
    extractor_for = getattr(repository, "extractor_for", None)
    sources: list[tuple[Path, str, FormatExtractor]] = []
    unresolved: Exception | None = None
    try:
        for uri in uris:
            # Only a file about to be read needs its path (for a remote one,
            # its staging directory).
            path = repository.path_of(uri)
            if extractor_for is not None:
                extractor = extractor_for(path, uri, registry)
            else:
                extractor = registry.for_path(path)
            sources.append((path, uri, extractor))
    except Exception as exc:
        unresolved = exc
    extracted: list[ExtractedMetadata] = []
    for extractor, run in groupby(sources, key=itemgetter(2)):
        if isinstance(extractor, BatchFormatExtractor):
            extracted += extractor.extract_metadata_many(
                [(path, uri) for path, uri, _ in run]
            )
        else:
            extracted += [
                extractor.extract_metadata(path, uri) for path, uri, _ in run
            ]
    if unresolved is not None:
        raise unresolved
    return sources, extracted


def lazy_ingest_metadata(
    db: Database,
    repository: FileRepository,
    registry: FormatRegistry | None = None,
    metastore: MetadataStore | None = None,
) -> LazyLoadReport:
    """Header-only load of ``F`` and ``R``; the actual table stays empty."""
    registry = registry or default_registry()
    ensure_schema(db)
    started = time.perf_counter()

    # What each file's rows are loaded from: the store's state or a fresh
    # extraction, which carry the same two fields.
    loaded: dict[str, StoredFileState | ExtractedMetadata] = {}
    if metastore is not None:
        # The store's reuse is gated on every file's signature as observed
        # now, in one go.
        observed = _observe(repository)
        uris = list(observed)
        for uri in uris:
            stored = metastore.lookup(uri, observed[uri])
            if stored is not None:
                loaded[uri] = stored
    else:
        uris = repository.uris()
    files_reused = len(loaded)
    fresh = [uri for uri in uris if uri not in loaded]
    _, extracted = metadata_pass(repository, registry, fresh)
    for uri, metadata in zip(fresh, extracted):
        loaded[uri] = metadata
        if metastore is not None:
            # Should the file have changed since it was observed, the store
            # signs the newer bytes' rows with the older signature, which
            # the next session finds stale and extracts again.
            metastore.record(
                uri, observed[uri], metadata.file_row, metadata.records
            )
    file_rows = [loaded[uri].file_row for uri in uris]
    record_parts = [loaded[uri].records for uri in uris]

    db.catalog.table(FILE_TABLE).append(file_rows_batch(file_rows))
    records = record_rows_batch([row.uri for row in file_rows], record_parts)
    db.catalog.table(RECORD_TABLE).append(records)
    load_seconds = time.perf_counter() - started

    if metastore is not None:
        metastore.record_table_rows(
            {
                FILE_TABLE.lower(): len(file_rows),
                RECORD_TABLE.lower(): records.num_rows,
            }
        )
        metastore.retain(uris)
        if metastore.dirty:
            metastore.save()

    metadata_bytes = (
        db.catalog.table(FILE_TABLE).nbytes()
        + db.catalog.table(RECORD_TABLE).nbytes()
    )
    return LazyLoadReport(
        files=len(file_rows),
        records=records.num_rows,
        samples=sum(r.nsamples for r in file_rows),
        load_seconds=load_seconds,
        metadata_bytes=metadata_bytes,
        files_reused=files_reused,
    )
