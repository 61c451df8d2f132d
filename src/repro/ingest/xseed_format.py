"""xSEED → relational schema mapping (the libmseed substitute)."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..mseed.record import sample_time_offsets
from ..mseed.volume import (
    SelectiveRead,
    decode_volume,
    read_files_metadata,
    read_selected_records,
)
from .formats import (
    ExtractedMetadata,
    FileMetaRow,
    MountedFile,
    MountOutcome,
    MountRequest,
    RecordColumns,
    extraction_guard,
)


class XSeedExtractor:
    """Extracts metadata and actual data from xSEED volumes.

    Both paths run under :func:`~repro.ingest.formats.extraction_guard`:
    a corrupt, truncated, or concurrently-rewritten volume surfaces as a
    typed :class:`~repro.db.errors.FileIngestError` naming this URI and the
    failing byte offset, never as a raw parse error.
    """

    format_name = "xseed"
    suffix = ".xseed"

    def extract_metadata(self, path: Path, uri: str) -> ExtractedMetadata:
        return self.extract_metadata_many([(path, uri)])[0]

    def extract_metadata_many(
        self, files: Sequence[tuple[Path, str]]
    ) -> list[ExtractedMetadata]:
        return [
            ExtractedMetadata(
                FileMetaRow(uri=uri, **vars(meta)),  # same fields
                RecordColumns(**columns),
            )
            for (_, uri), (meta, columns) in zip(
                files, read_files_metadata(files, extraction_guard)
            )
        ]

    def mount(self, path: Path, uri: str) -> MountedFile:
        with extraction_guard(uri, path):
            return _mounted(uri, decode_volume(path, uri=uri))

    def mount_selective(
        self, path: Path, uri: str, request: MountRequest
    ) -> MountOutcome:
        spans = request.records
        if spans is not None and not all(s.addressable for s in spans):
            # A byte map with holes (e.g. rows from an older metadata pass)
            # cannot be trusted for seeking; fall back to the header walk.
            spans = None
        with extraction_guard(uri, path):
            selected = read_selected_records(
                path, request.interval, uri=uri, spans=spans
            )
        return MountOutcome(
            mounted=_mounted(uri, selected),
            bytes_read=selected.bytes_read,
            records_decoded=selected.records_decoded,
            records_skipped=selected.records_skipped,
        )


def _mounted(uri: str, read: SelectiveRead) -> MountedFile:
    """The ``D``-layout columns of the records one read decoded.

    Each column is allocated once for the file. Sample times are a record's
    ``start_time`` plus :func:`sample_time_offsets` — still the single
    source of timing — computed once per distinct record shape.
    """
    counts = np.fromiter(
        (h.nsamples for h in read.headers), np.int64, len(read.headers)
    )
    sample_time = np.empty(len(read.samples), dtype=np.int64)
    offsets_of: dict[tuple[int, float], np.ndarray] = {}
    position = 0
    for header in read.headers:
        shape = (header.nsamples, header.sample_rate)
        offsets = offsets_of.get(shape)
        if offsets is None:
            offsets = offsets_of[shape] = sample_time_offsets(*shape)
        end = position + header.nsamples
        np.add(offsets, header.start_time, out=sample_time[position:end])
        position = end
    return MountedFile(
        uri=uri,
        record_id=np.repeat(np.asarray(read.record_ids, dtype=np.int64), counts),
        sample_time=sample_time,
        sample_value=read.samples.astype(np.float64),
    )
