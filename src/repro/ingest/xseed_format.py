"""xSEED → relational schema mapping (the libmseed substitute)."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..db.column import RecordRuns
from ..mseed.volume import (
    MetadataBlock,
    SelectiveRead,
    decode_volume,
    read_files_metadata,
    read_selected_records,
)
from .formats import (
    ExtractedMetadata,
    MountedFile,
    MountOutcome,
    MountRequest,
    extraction_guard,
)
from ._batches import run_encoded_mount


class XSeedExtractor:
    """Extracts metadata and actual data from xSEED volumes.

    Both paths run under :func:`~repro.ingest.formats.extraction_guard`:
    a corrupt, truncated, or concurrently-rewritten volume surfaces as a
    typed :class:`~repro.db.errors.FileIngestError` naming this URI and the
    failing byte offset, never as a raw parse error.
    """

    format_name = "xseed"
    suffix = ".xseed"

    def extract_metadata(
        self, path: str | Path, uri: str
    ) -> ExtractedMetadata:
        block = self.extract_metadata_many([(path, uri)])
        return ExtractedMetadata.of(block, 0)

    def extract_metadata_many(
        self, files: Sequence[tuple[str | Path, str]]
    ) -> MetadataBlock:
        return read_files_metadata(files, extraction_guard)

    def mount(self, path: str | Path, uri: str) -> MountedFile:
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
    """The ``D`` layout of the records one read decoded: the samples, and
    one run per record from its header (start time, rate, sample count).
    No per-sample time or id is built; :class:`~repro.db.column.RecordRuns`
    derives them, with the arithmetic that defines ``R.end_time``, only
    where a query reads them."""
    runs = RecordRuns.of_records(
        uri, read.record_id, read.nsamples, read.start_time, read.sample_rate
    )
    return run_encoded_mount(uri, read.samples, runs)
