"""xSEED → relational schema mapping (the libmseed substitute)."""

from __future__ import annotations

from typing import Sequence

from ..db.column import RecordRuns
from ..mseed.iohooks import ByteSource
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

    def extract_metadata(self, source: ByteSource) -> ExtractedMetadata:
        return ExtractedMetadata.of(self.extract_metadata_many([source]), 0)

    def extract_metadata_many(
        self, sources: Sequence[ByteSource]
    ) -> MetadataBlock:
        return read_files_metadata(sources, extraction_guard)

    def mount(self, source: ByteSource) -> MountedFile:
        with extraction_guard(source):
            return _mounted(source.uri, decode_volume(source))

    def mount_selective(
        self, source: ByteSource, request: MountRequest
    ) -> MountOutcome:
        spans = request.records
        if spans is not None and not all(s.addressable for s in spans):
            # A byte map with holes (e.g. rows from an older metadata pass)
            # cannot be trusted for seeking; fall back to the header walk.
            spans = None
        with extraction_guard(source):
            selected = read_selected_records(source, request.interval, spans)
        return MountOutcome(
            mounted=_mounted(source.uri, selected),
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
