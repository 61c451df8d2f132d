"""Lazy metadata-only ingestion — the setup phase of ALi.

"We load only metadata up-front. Files of interest are ingested in the
second stage of execution, wherever and whenever we need them." This module
is the *up-front* half: a header-only pass filling ``F`` and ``R``. The
per-query half (mounting) lives in :mod:`repro.core.mounting`.

With a :class:`~repro.core.metastore.MetadataStore` attached, the pass
becomes incremental across sessions: the repository is observed once, in
bulk (:meth:`~repro.mseed.repository.Repository.signatures` — one walk of
a local tree, one LIST for a whole remote endpoint), and the observed
``(mtime_ns, size)`` signatures are compared with the stored signature
columns in one vectorized step. A file whose signature matches takes its
``F`` row and ``R`` slice — including the record byte map selective mounting
needs — from the stored block by index, without being touched again; only
changed or new files pay the header walk. The pass's block, in listing
order, then becomes the store's image (files that have left the repository
drop out with it), and the store is re-saved if that changed it, so the
next session inherits this one's work. Signature drift always falls back to
live extraction, so the rows loaded are identical either way, and a failed
save costs the next session a walk, never this one its rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import groupby, pairwise
from operator import itemgetter
from typing import Iterable

import numpy as np

from ..core.metastore import MetadataStore
from ..db.database import Database
from ..mseed.iohooks import ByteSource
from ..mseed.repository import Repository
from ..mseed.volume import MetadataBlock
from ._batches import metadata_batches
from .formats import (
    BatchFormatExtractor,
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


Source = tuple[ByteSource, FormatExtractor]


def metadata_pass(
    repository: Repository,
    registry: FormatRegistry,
    located: Iterable[Source] | None = None,
) -> tuple[list[Source], MetadataBlock]:
    """The header-only pass over ``located`` — each file's ``(source,
    extractor)``, by default every file as one listing of the repository
    located it (:meth:`~repro.mseed.repository.Repository.locate`): those
    pairs, and what the extractors read of the files as one block, both in
    the order given.

    Files are located and dispatched first — that reads nothing — and
    maximal runs of consecutive files with the same extractor are then
    extracted in one ``extract_metadata_many`` call when the extractor has
    one, file by file (their views stacked into a block) when not. The
    first defective file in the order given decides the error: a URI that
    does not resolve waits for the files before it.
    """
    if located is None:
        located = repository.locate(registry)
    sources: list[Source] = []
    unresolved: Exception | None = None
    try:
        sources.extend(located)
    except Exception as exc:
        unresolved = exc
    blocks: list[MetadataBlock] = []
    for extractor, run in groupby(sources, key=itemgetter(1)):
        files = [source for source, _ in run]
        if isinstance(extractor, BatchFormatExtractor):
            blocks.append(extractor.extract_metadata_many(files))
        else:
            blocks.append(views_block(
                [extractor.extract_metadata(source) for source in files]
            ))
    if unresolved is not None:
        raise unresolved
    return sources, MetadataBlock.stack(blocks)


def _incremental_pass(
    repository: Repository,
    registry: FormatRegistry,
    metastore: MetadataStore,
) -> tuple[MetadataBlock, int]:
    """The pass with a store: every file observed in one go, the files whose
    signature still matches taken from the stored block by index, the rest
    extracted; the block of every listed file, in listing order, becomes the
    store's image. Returns that block and how many files came from the
    store."""
    observed = repository.signatures()
    uris = list(observed)
    signatures = np.array(list(observed.values()), np.int64).reshape(-1, 2)
    stored, at = metastore.match(uris, signatures)
    reused = at >= 0
    _, extracted = metadata_pass(
        repository,
        registry,
        (repository.source_for(uri, registry)
         for uri, kept in zip(uris, reused.tolist()) if not kept),
    )
    # Each file's position in the block it comes from; a run of files at
    # consecutive positions of one block is one slice of it.
    source = np.where(reused, at, np.cumsum(~reused) - 1)
    cut = np.ones(len(uris) + 1, bool)
    cut[1:-1] = (reused[1:] != reused[:-1]) | (np.diff(source) != 1)
    bounds = np.flatnonzero(cut).tolist()
    block = MetadataBlock.stack([
        (stored if reused[lo] else extracted)[source[lo] : source[lo] + hi - lo]
        for lo, hi in pairwise(bounds)
    ])
    # Should a file have changed since it was observed, the store signs the
    # newer bytes' rows with the older signature, which the next session
    # finds stale and extracts again.
    metastore.keep(block, signatures)
    return block, int(reused.sum())


def lazy_ingest_metadata(
    db: Database,
    repository: Repository,
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

    if metastore is not None and metastore.dirty:
        try:
            metastore.save()
        except OSError:
            pass  # the rows stand; the store stays dirty for the next pass

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
