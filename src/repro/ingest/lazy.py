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
from typing import Iterable

from ..core.metastore import MetadataStore
from ..db.database import Database
from ..mseed.repository import FileRepository
from ..mseed.volume import MetadataBlock
from ._batches import metadata_batches
from .formats import (
    BatchFormatExtractor,
    ExtractedMetadata,
    FormatExtractor,
    FormatRegistry,
    default_registry,
    views_block,
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


Source = tuple[str | Path, str, FormatExtractor]


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
    repository: FileRepository,
    registry: FormatRegistry,
    located: Iterable[tuple[str, str | Path]] | None = None,
) -> tuple[list[Source], MetadataBlock]:
    """The header-only pass over ``located`` — ``(uri, path)`` pairs, by
    default every file as one listing of the repository located it
    (:meth:`~repro.mseed.repository.FileRepository.locate`): each file's
    ``(path, uri, extractor)``, and what the extractors read of the files as
    one block, both in the order given.

    Files are located and dispatched first — that reads nothing — and
    maximal runs of consecutive files with the same extractor are then
    extracted in one ``extract_metadata_many`` call when the extractor has
    one, file by file (their views stacked into a block) when not. The
    first defective file in the order given decides the error: a URI that
    does not resolve waits for the files before it.
    """
    if located is None:
        located = repository.locate()
    extractor_for = getattr(repository, "extractor_for", None)
    sources: list[Source] = []
    unresolved: Exception | None = None
    try:
        for uri, path in located:
            if extractor_for is not None:
                extractor = extractor_for(path, uri, registry)
            else:
                extractor = registry.for_path(path)
            sources.append((path, uri, extractor))
    except Exception as exc:
        unresolved = exc
    blocks: list[MetadataBlock] = []
    for extractor, run in groupby(sources, key=itemgetter(2)):
        files = [(path, uri) for path, uri, _ in run]
        if isinstance(extractor, BatchFormatExtractor):
            blocks.append(extractor.extract_metadata_many(files))
        else:
            blocks.append(views_block(
                [extractor.extract_metadata(path, uri) for path, uri in files]
            ))
    if unresolved is not None:
        raise unresolved
    return sources, MetadataBlock.stack(blocks)


def _incremental_pass(
    repository: FileRepository,
    registry: FormatRegistry,
    metastore: MetadataStore,
) -> tuple[MetadataBlock, int]:
    """The pass with a store: every file observed in one go, the files whose
    signature still matches taken from the store, the rest extracted and
    recorded. Returns the block of every listed file, in listing order, and
    how many came from the store."""
    observed = _observe(repository)
    stored = {}
    for uri, signature in observed.items():
        state = metastore.lookup(uri, signature)
        if state is not None:
            stored[uri] = state
    fresh = [uri for uri in observed if uri not in stored]
    _, extracted = metadata_pass(
        repository, registry, ((uri, repository.path_of(uri)) for uri in fresh)
    )
    for k, uri in enumerate(fresh):
        # Should the file have changed since it was observed, the store signs
        # the newer bytes' rows with the older signature, which the next
        # session finds stale and extracts again.
        kept = ExtractedMetadata.of(extracted, k)
        metastore.record(uri, observed[uri], kept.file_row, kept.records)
    # Listing order: each run of fresh files is a slice of the extracted
    # block, each run of stored ones a block of their stored views.
    parts: list[MetadataBlock] = []
    at = 0
    for reused, run in groupby(observed, key=stored.__contains__):
        if reused:
            parts.append(views_block([stored[uri] for uri in run]))
        else:
            count = sum(1 for _ in run)
            parts.append(extracted[at : at + count])
            at += count
    return MetadataBlock.stack(parts), len(stored)


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

    if metastore is None:
        _, block = metadata_pass(repository, registry)
        files_reused = 0
    else:
        block, files_reused = _incremental_pass(
            repository, registry, metastore
        )
    file_batch, record_batch = metadata_batches(block)
    db.catalog.table(FILE_TABLE).append(file_batch)
    db.catalog.table(RECORD_TABLE).append(record_batch)
    load_seconds = time.perf_counter() - started

    if metastore is not None:
        metastore.record_table_rows(
            {
                FILE_TABLE.lower(): file_batch.num_rows,
                RECORD_TABLE.lower(): record_batch.num_rows,
            }
        )
        metastore.retain(block.files["uri"])
        if metastore.dirty:
            metastore.save()

    metadata_bytes = (
        db.catalog.table(FILE_TABLE).nbytes()
        + db.catalog.table(RECORD_TABLE).nbytes()
    )
    return LazyLoadReport(
        files=file_batch.num_rows,
        records=record_batch.num_rows,
        samples=int(block.files["nsamples"].sum()),
        load_seconds=load_seconds,
        metadata_bytes=metadata_bytes,
        files_reused=files_reused,
    )
