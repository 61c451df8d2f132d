"""The format-extractor plug-in interface (the paper's generalization, §5).

"We can design a generalized medium for the scientific developer [to] define
domain- and format-specific mappings and extractions" — this module is that
medium. A :class:`FormatExtractor` maps one file format onto the relational
schema through two operations with very different costs:

* :meth:`~FormatExtractor.extract_metadata` — cheap, header-only; feeds the
  metadata tables ``F`` and ``R``,
* :meth:`~FormatExtractor.mount` — full extract/transform; feeds the actual
  data table ``D`` one file at a time.

Every operation reads its file through a
:class:`~repro.mseed.iohooks.ByteSource` — the file's URI, its size and an
``open()`` that the installed I/O hook wraps — never through a path: a local
file and a remote object's bytes held in memory read alike, and a fault plan
or a byte counter sees every read.

Extractors may additionally implement **selective mounting**
(``mount_selective``): given a :class:`MountRequest` — the fused predicate's
closed time interval plus, when the metadata pass recorded one, the file's
record byte map — the extractor seeks directly to the records whose header
interval overlaps the request, reads only those byte ranges, and decodes
only those payloads. The :class:`MountOutcome` it returns carries exact
read/decode accounting so the mount service can charge the buffer manager
for the bytes actually read rather than the whole file. Formats that do not
implement it fall back to :meth:`~FormatExtractor.mount` transparently.

Extractors may likewise implement **batched metadata extraction**
(``extract_metadata_many``): the metadata pass hands a run of consecutive
files of one extractor over in one call and gets their ``F`` and ``R``
columns back as one :class:`~repro.mseed.volume.MetadataBlock`, so a format
whose headers parse columnar never builds a per-file object. Formats that do
not implement it are asked file by file, and a run's answers are stacked
into one block (:func:`views_block`).

The :class:`FormatRegistry` resolves a file's extractor by suffix, so one
repository may mix formats. It alone makes that choice: a repository, local
or remote, hands over a file's bytes and knows no format.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from ..db.errors import CorruptFileError, FileIngestError, IngestError
from ..db.interval import WHOLE_FILE, Interval, is_empty, overlaps
from ..db.table import ColumnBatch
from ..mseed.iohooks import ByteSource
from ..mseed.volume import FILE_COLUMNS, RECORD_COLUMNS, MetadataBlock


@contextmanager
def extraction_guard(source: ByteSource) -> Iterator[None]:
    """Normalize one file's extraction failures into the ingest taxonomy.

    Wrap every :meth:`FormatExtractor.extract_metadata` /
    :meth:`FormatExtractor.mount` body in this. Taxonomy errors pass through
    (annotated with ``uri`` when the lower layer did not know it); raw
    parse errors (``ValueError``, ``struct.error``) become
    :class:`~repro.db.errors.CorruptFileError`; I/O errors become transient
    :class:`~repro.db.errors.FileIngestError` so the mount service retries
    them before quarantining the file.
    """
    uri = source.uri
    try:
        yield
    except FileIngestError as exc:
        raise exc.with_uri(uri) from exc.cause
    except IngestError:
        raise
    except FileNotFoundError as exc:
        raise FileIngestError(
            f"file disappeared during extraction: {uri}", uri=uri, cause=exc
        ) from exc
    except OSError as exc:
        raise FileIngestError(
            f"I/O error reading {uri}: {exc}",
            uri=uri,
            cause=exc,
            transient=True,
        ) from exc
    except (ValueError, struct.error) as exc:
        raise CorruptFileError(str(exc), uri=uri, cause=exc) from exc


@dataclass(frozen=True)
class FileMetaRow:
    """One row of the file-level metadata table ``F``."""

    uri: str
    network: str
    station: str
    location: str
    channel: str
    start_time: int
    end_time: int
    nrecords: int
    nsamples: int
    size_bytes: int


@dataclass(frozen=True)
class RecordColumns:
    """One file's rows of the record-level metadata table ``R``, as parallel
    arrays in file order; a record's ``record_id`` is its position.

    ``byte_offset``/``byte_length`` locate the record inside its file — the
    header-only pass walks record boundaries anyway, so recording them is
    free, and they are what lets selective mounting seek straight to a
    record instead of streaming the whole file. ``-1`` means the format
    cannot address records by byte range.
    """

    start_time: np.ndarray  # int64 µs
    end_time: np.ndarray  # int64 µs
    sample_rate: np.ndarray  # float64
    nsamples: np.ndarray  # int64
    byte_offset: np.ndarray  # int64
    byte_length: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.start_time)

    def spans(self) -> tuple["RecordSpan", ...]:
        """The record byte map these rows imply."""
        return record_spans(
            np.arange(len(self)), self.byte_offset, self.byte_length,
            self.start_time, self.end_time,
        )


@dataclass(frozen=True)
class ExtractedMetadata:
    """Everything a header-only pass learns about one file."""

    file_row: FileMetaRow
    records: RecordColumns

    @classmethod
    def of(cls, block: MetadataBlock, k: int) -> "ExtractedMetadata":
        """File ``k`` of ``block``, as a per-file view of its columns."""
        meta, records = block[k]
        return cls(
            FileMetaRow(uri=block.files["uri"][k], **vars(meta)),
            RecordColumns(**records),
        )


def views_block(views: Sequence[ExtractedMetadata]) -> MetadataBlock:
    """One or more files' per-file views, in order, as one block. A view is
    anything with a ``file_row`` and its ``records``: what a per-file
    extractor answers."""
    rows = [view.file_row for view in views]
    files: dict[str, list[str] | np.ndarray] = {
        name: [getattr(row, name) for row in rows] for name in FILE_COLUMNS[:5]
    }
    files |= {
        name: np.array([getattr(row, name) for row in rows], dtype=np.int64)
        for name in FILE_COLUMNS[5:]
    }
    records = {
        name: np.concatenate([getattr(view.records, name) for view in views])
        for name in RECORD_COLUMNS
    }
    return MetadataBlock(files, records)


@dataclass(frozen=True)
class MountedFile:
    """One file's actual data as a ``D``-layout batch (``uri``,
    ``record_id``, ``sample_time``, ``sample_value``), and how many of its
    records the extraction decoded.

    A format whose records carry a start time and a rate (xSEED) hands the
    batch over run-encoded: ``sample_value`` plus one
    :class:`~repro.db.column.RecordRuns` run per decoded record. A format
    with explicit times (CSV) hands it over materialized. The array
    properties read a column as stored values (materializing a derived one).
    """

    uri: str
    batch: ColumnBatch
    records: int

    @property
    def num_rows(self) -> int:
        return self.batch.num_rows

    @property
    def record_id(self) -> np.ndarray:
        return self.batch.column("record_id").values

    @property
    def sample_time(self) -> np.ndarray:
        return self.batch.column("sample_time").values

    @property
    def sample_value(self) -> np.ndarray:
        return self.batch.column("sample_value").values


@dataclass(frozen=True)
class RecordSpan:
    """One record's position in time and in its file (the byte map unit)."""

    record_id: int
    byte_offset: int
    byte_length: int
    start_time: int
    end_time: int

    @property
    def addressable(self) -> bool:
        return self.byte_offset >= 0 and self.byte_length > 0


def record_spans(*columns: np.ndarray) -> tuple[RecordSpan, ...]:
    """A record byte map from parallel arrays in :class:`RecordSpan`'s
    field order, one span per entry, in the order given."""
    return tuple(map(RecordSpan, *(column.tolist() for column in columns)))


@dataclass(frozen=True)
class MountRequest:
    """What a query actually needs from one file.

    ``interval`` is the fused predicate's closed time interval (the Mount
    node's pruning interval); ``records`` is the file's record byte map from
    the metadata pass, or ``None`` when the caller has none — the extractor
    then walks record headers itself, still skipping non-overlapping
    payload reads and decodes.
    """

    interval: Interval = WHOLE_FILE
    records: Optional[tuple[RecordSpan, ...]] = None

    @property
    def selects_all(self) -> bool:
        return self.interval == WHOLE_FILE

    @property
    def selects_nothing(self) -> bool:
        return is_empty(self.interval)

    def wants(self, start_time: int, end_time: int) -> bool:
        """Whether a record spanning ``[start_time, end_time]`` overlaps."""
        return overlaps(self.interval, start_time, end_time)


@dataclass(frozen=True)
class MountOutcome:
    """A (possibly selective) mount plus exact read/decode accounting.

    ``bytes_read`` is what the extraction actually pulled off disk — the
    number the buffer manager is charged with — and ``records_decoded`` /
    ``records_skipped`` partition the file's records by whether their
    payload was ever decompressed.
    """

    mounted: MountedFile
    bytes_read: int
    records_decoded: int
    records_skipped: int


@runtime_checkable
class FormatExtractor(Protocol):
    """One scientific file format's mapping onto the relational schema."""

    format_name: str
    suffix: str

    def extract_metadata(self, source: ByteSource) -> ExtractedMetadata:
        """Header-only metadata extraction (must not decode actual data)."""
        ...

    def mount(self, source: ByteSource) -> MountedFile:
        """Full extraction of the file's actual data."""
        ...


@runtime_checkable
class SelectiveFormatExtractor(FormatExtractor, Protocol):
    """A format extractor that can mount a subset of a file's records."""

    def mount_selective(
        self, source: ByteSource, request: MountRequest
    ) -> MountOutcome:
        """Extract only the records overlapping ``request.interval``.

        Must return exactly the tuples of every record whose header time
        span overlaps the request (a superset of the tuples inside the
        interval — the mount service re-applies the fused predicate), with
        byte-exact read accounting. A byte map that no longer matches the
        file on disk must surface as
        :class:`~repro.db.errors.StaleFileError`.
        """
        ...


@runtime_checkable
class BatchFormatExtractor(FormatExtractor, Protocol):
    """A format extractor that can extract many files' metadata at once."""

    def extract_metadata_many(
        self, sources: Sequence[ByteSource]
    ) -> MetadataBlock:
        """What :meth:`extract_metadata` reads of each source, as one block
        of the files in order.

        Must read each file exactly as the one-file call does and raise what
        a file-by-file loop would: the first defective file's error.
        """
        ...


class FormatRegistry:
    """Suffix-keyed registry of format extractors."""

    def __init__(self) -> None:
        self._by_suffix: dict[str, FormatExtractor] = {}

    def register(self, extractor: FormatExtractor) -> None:
        suffix = extractor.suffix.lower()
        if not suffix.startswith("."):
            raise IngestError(f"suffix must start with '.', got {suffix!r}")
        self._by_suffix[suffix] = extractor

    def for_path(self, path: str | Path) -> FormatExtractor:
        suffix = path_suffix(os.fspath(path)).lower()
        extractor = self._by_suffix.get(suffix)
        if extractor is None:
            raise IngestError(
                f"no format extractor registered for {suffix!r} "
                f"(known: {sorted(self._by_suffix)})"
            )
        return extractor


def path_suffix(path: str) -> str:
    """``PurePath(path).suffix``, without building the ``PurePath``: the
    last name's final ``.``-part, unless the dot leads or ends the name."""
    name = path.rstrip(os.sep).rpartition(os.sep)[2]
    if os.altsep:
        name = name.rpartition(os.altsep)[2]
    dot = name.rfind(".")
    return name[dot:] if 0 < dot < len(name) - 1 else ""


def default_registry() -> FormatRegistry:
    """Registry with the built-in formats (xSEED and CSV time series)."""
    from .csv_format import CsvExtractor
    from .xseed_format import XSeedExtractor

    registry = FormatRegistry()
    registry.register(XSeedExtractor())
    registry.register(CsvExtractor())
    return registry
