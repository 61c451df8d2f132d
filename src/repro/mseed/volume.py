"""xSEED volumes: files made of concatenated records.

The key asymmetry the paper exploits is implemented here:
:func:`scan_headers` reads only the 64-byte headers and *seeks over* every
payload, so metadata extraction costs a tiny fraction of a full parse, while
:func:`decode_volume` decodes everything (what eager ingestion and mounting
do) and :func:`read_selected_records` the records a time window touches —
both file-at-a-time: one Steim kernel call per file, not per record.
:func:`read_records` is the record-at-a-time API for tools and tests.

Every parse failure raises a :class:`~repro.db.errors.FileIngestError`
subclass carrying the offending URI (the path, unless the caller passes the
repository URI) and the byte offset of the record that failed, so a corrupt
file surfaces with enough context to quarantine it.
"""

from __future__ import annotations

import os
import struct
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import (
    Callable,
    ContextManager,
    Iterable,
    Iterator,
    NoReturn,
    Optional,
    Sequence,
)

import numpy as np

from ..db.errors import CorruptFileError, StaleFileError, TruncatedFileError
from ..db.interval import Interval, overlaps
from .iohooks import open_volume
from .record import (
    ENCODING_STEIM1,
    HEADER_DTYPE,
    HEADER_SIZE,
    IDENTIFIER_BOUNDS,
    INT64_MAX,
    MAGIC,
    RecordHeader,
    XSeedRecord,
)
from .steim import SteimError, steim_decode


def write_volume(path: str | Path, records: Sequence[XSeedRecord]) -> int:
    """Write records to a file; returns bytes written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    total = 0
    with open(path, "wb") as handle:
        for record in records:
            raw = record.pack()
            handle.write(raw)
            total += len(raw)
    return total


def read_records(path: str | Path, uri: str | None = None) -> list[XSeedRecord]:
    """Fully parse a volume: headers *and* decompressed payloads."""
    return list(iter_records(path, uri))


def iter_records(
    path: str | Path, uri: str | None = None
) -> Iterator[XSeedRecord]:
    uri = uri if uri is not None else str(path)
    offset = 0
    with open_volume(path, uri) as handle:
        while True:
            header_raw = handle.read(HEADER_SIZE)
            if not header_raw:
                return
            header = RecordHeader.unpack(header_raw, uri=uri, offset=offset)
            payload = handle.read(header.payload_len)
            if len(payload) != header.payload_len:
                raise TruncatedFileError(
                    f"record payload truncated: {len(payload)} of "
                    f"{header.payload_len} bytes",
                    uri=uri,
                    offset=offset + HEADER_SIZE,
                )
            yield XSeedRecord.unpack(
                header_raw + payload, uri=uri, offset=offset
            )
            offset += HEADER_SIZE + header.payload_len


def read_volume(path: str | Path) -> list[XSeedRecord]:
    """Alias for :func:`read_records` (kept for symmetry with write)."""
    return read_records(path)


@dataclass(frozen=True)
class SelectiveRead:
    """The records one read of a volume selected, decoded, and its cost.

    File-at-a-time, not record-at-a-time: ``record_ids`` and ``headers``
    are parallel per-record lists and ``samples`` holds the selected
    records' samples back to back (``headers[i].nsamples`` each), decoded
    by one :func:`steim_decode` call.
    """

    record_ids: list[int]
    headers: list[RecordHeader]
    samples: np.ndarray  # int32
    bytes_read: int  # headers + payloads actually pulled off disk
    records_skipped: int

    @property
    def records_decoded(self) -> int:
        return len(self.headers)


class _Selection:
    """Accumulates the (header, payload) pairs a read loop selects."""

    def __init__(self, uri: str) -> None:
        self.uri = uri
        self.record_ids: list[int] = []
        self.offsets: list[int] = []
        self.headers: list[RecordHeader] = []
        self.payloads: list[bytes] = []
        self.bytes_read = 0
        self.skipped = 0

    def add(
        self, record_id: int, offset: int, header: RecordHeader, payload: bytes
    ) -> None:
        if len(payload) != header.payload_len:
            raise TruncatedFileError(
                f"record payload truncated: {len(payload)} of "
                f"{header.payload_len} bytes",
                uri=self.uri,
                offset=offset + HEADER_SIZE,
            )
        if header.encoding != ENCODING_STEIM1:
            raise CorruptFileError(
                f"unknown encoding {header.encoding}",
                uri=self.uri,
                offset=offset,
            )
        self.record_ids.append(record_id)
        self.offsets.append(offset)
        self.headers.append(header)
        self.payloads.append(payload)

    def decode(self) -> SelectiveRead:
        """Decode every selected payload in one kernel call.

        The kernel reports a defect by record index within the batch; the
        record's file offset turns that into the byte offset of its payload.
        """
        try:
            samples = steim_decode(
                self.payloads, [h.nsamples for h in self.headers]
            )
        except SteimError as exc:
            raise SteimError(
                exc.message,
                uri=self.uri,
                offset=self.offsets[exc.record] + HEADER_SIZE,
                cause=exc,
            ) from exc
        return SelectiveRead(
            self.record_ids, self.headers, samples, self.bytes_read, self.skipped
        )


def decode_volume(path: str | Path, uri: str | None = None) -> SelectiveRead:
    """Every record of a volume, decoded file-at-a-time (a whole-file mount).

    The same bytes, read by the same calls, as :func:`read_records`, without
    a record object or a kernel call per record.
    """
    uri = uri if uri is not None else str(path)
    return _read_by_header_walk(Path(path), None, uri)


def read_selected_records(
    path: str | Path,
    interval: Interval,
    uri: str | None = None,
    spans: Optional[Sequence] = None,
) -> SelectiveRead:
    """Decode only the records whose header time span overlaps ``interval``.

    With a record byte map (``spans`` — objects carrying ``record_id``,
    ``byte_offset``, ``byte_length``, ``start_time``, ``end_time``), the
    read seeks straight to each overlapping record and touches nothing
    else: skipped records cost zero bytes. Every selected record's header
    is re-validated against its span — a map that no longer matches the
    file (rewritten since the metadata pass) raises
    :class:`~repro.db.errors.StaleFileError` instead of yielding torn rows.

    Without a byte map, the read streams the file header-by-header (64
    bytes per record, like :func:`scan_headers`) and seeks over every
    non-overlapping payload, so the payload read + Steim decode — the
    dominant cost — is still skipped.
    """
    uri = uri if uri is not None else str(path)
    path = Path(path)
    if spans is not None:
        return _read_by_byte_map(path, interval, uri, spans)
    return _read_by_header_walk(path, interval, uri)


def _read_by_byte_map(
    path: Path, interval: Interval, uri: str, spans: Sequence
) -> SelectiveRead:
    size = path.stat().st_size
    selection = _Selection(uri)
    with open_volume(path, uri) as handle:
        for span in spans:
            if not overlaps(interval, span.start_time, span.end_time):
                selection.skipped += 1
                continue
            if span.byte_offset + span.byte_length > size:
                raise TruncatedFileError(
                    f"record ends at byte "
                    f"{span.byte_offset + span.byte_length}, file ends at "
                    f"{size}",
                    uri=uri,
                    offset=span.byte_offset,
                )
            handle.seek(span.byte_offset)
            raw = handle.read(span.byte_length)
            selection.bytes_read += len(raw)
            header = RecordHeader.unpack(raw, uri=uri, offset=span.byte_offset)
            if (
                header.start_time != span.start_time
                or HEADER_SIZE + header.payload_len != span.byte_length
            ):
                raise StaleFileError(
                    "record byte map no longer matches the file on disk "
                    f"(record {span.record_id}: header start_time/length "
                    "drifted since the metadata pass)",
                    uri=uri,
                    offset=span.byte_offset,
                )
            selection.add(
                span.record_id, span.byte_offset, header, raw[HEADER_SIZE:]
            )
    return selection.decode()


def _read_by_header_walk(
    path: Path, interval: Optional[Interval], uri: str
) -> SelectiveRead:
    """Stream the volume; ``interval=None`` selects every record."""
    size = path.stat().st_size
    selection = _Selection(uri)
    offset = 0
    record_id = 0
    with open_volume(path, uri) as handle:
        while True:
            header_raw = handle.read(HEADER_SIZE)
            if not header_raw:
                break
            selection.bytes_read += len(header_raw)
            header = RecordHeader.unpack(header_raw, uri=uri, offset=offset)
            record_end = offset + HEADER_SIZE + header.payload_len
            if interval is None or overlaps(
                interval, header.start_time, header.end_time
            ):
                payload = handle.read(header.payload_len)
                selection.bytes_read += len(payload)
                selection.add(record_id, offset, header, payload)
            else:
                # Truncation inside a skipped payload is still detected
                # against the file size (the scan_headers guarantee), but
                # the payload's *content* is never read — damage inside a
                # record the query does not touch cannot fail the query.
                if record_end > size:
                    raise TruncatedFileError(
                        f"record payload truncated: file ends at byte "
                        f"{size}, record needs {record_end}",
                        uri=uri,
                        offset=offset + HEADER_SIZE,
                    )
                handle.seek(header.payload_len, 1)
                selection.skipped += 1
            offset = record_end
            record_id += 1
    return selection.decode()


_PAYLOAD_LEN = struct.Struct(">I")
_PAYLOAD_LEN_AT = HEADER_DTYPE.fields["payload_len"][1]


def _walk_headers(path: str | Path, uri: str) -> tuple[list[bytes], int, bool]:
    """Read 64 bytes per record, seek over payloads: the raw headers, the
    file size, and whether the walk reached the end of the file. Looks only
    at ``magic`` and ``payload_len``: it gives up after a header that is short,
    has no magic or overruns the size, and :func:`_unpack_headers` names why."""
    size = os.stat(path).st_size
    raws: list[bytes] = []
    offset = 0
    with open_volume(path, uri) as handle:
        while raw := handle.read(HEADER_SIZE):
            raws.append(raw)
            if len(raw) < HEADER_SIZE or not raw.startswith(MAGIC):
                return raws, size, False
            (payload_len,) = _PAYLOAD_LEN.unpack_from(raw, _PAYLOAD_LEN_AT)
            offset += HEADER_SIZE + payload_len
            if offset > size:
                return raws, size, False
            handle.seek(payload_len, 1)
    return raws, size, True


def _unpack_headers(
    raws: Sequence[bytes], uri: str, size: int
) -> list[RecordHeader]:
    """Scalar-parse walked headers in file order, against the file size (the
    metadata never promises samples a payload cannot hold). The metadata
    pass's error oracle: the first record this rejects decides the error."""
    headers: list[RecordHeader] = []
    offset = 0
    for raw in raws:
        header = RecordHeader.unpack(raw, uri=uri, offset=offset)
        record_end = offset + HEADER_SIZE + header.payload_len
        if record_end > size:
            raise TruncatedFileError(
                f"record payload truncated: file ends at byte {size}, "
                f"record needs {record_end}",
                uri=uri,
                offset=offset + HEADER_SIZE,
            )
        headers.append(header)
        offset = record_end
    return headers


def scan_headers(
    path: str | Path, uri: str | None = None
) -> list[RecordHeader]:
    """Header-only scan, record by record: the cost is proportional to the
    number of records, not the number of samples."""
    uri = uri if uri is not None else str(path)
    raws, size, _ = _walk_headers(path, uri)
    return _unpack_headers(raws, uri, size)


@dataclass(frozen=True)
class FileMetadata:
    """File-level metadata summarized from record headers (table ``F``)."""

    network: str
    station: str
    location: str
    channel: str
    start_time: int
    end_time: int
    nrecords: int
    nsamples: int
    size_bytes: int


# Walked headers wait for the vectorised parse until this many are pending, so
# what a metadata pass holds in flight (64 bytes a header, 256 KiB a block) is
# bounded whatever the size of the archive. A block ends with the file that
# fills it.
_PARSE_BLOCK_HEADERS = 1 << 12

# One walked file awaiting the parse: path, URI, raw headers, size, complete.
_Walked = tuple[str | Path, str, list[bytes], int, bool]
_Guard = Callable[[str, str | Path], ContextManager[None]]


def _unguarded(uri: str, path: str | Path) -> ContextManager[None]:
    return nullcontext()


def read_files_metadata(
    files: Iterable[tuple[str | Path, str]], guard: _Guard = _unguarded
) -> list[tuple[FileMetadata, dict[str, np.ndarray]]]:
    """What ALi's metadata pass runs: file-level metadata and the
    record-level columns of each ``(path, uri)``, in order. Every file is
    walked as :func:`scan_headers` walks it; the headers of a whole block of
    files are parsed at once. ``size_bytes`` is the size the truncation
    check used.

    ``guard(uri, path)`` is entered around each file's walk and around its
    scalar re-parse: the caller's error taxonomy, applied per file. The
    first defective file in the order given decides the error raised — a
    walk that fails outright waits for the files walked before it to parse.
    """
    results: list[tuple[FileMetadata, dict[str, np.ndarray]]] = []
    walked: list[_Walked] = []
    pending = 0
    for path, uri in files:
        try:
            with guard(uri, path):
                raws, size, complete = _walk_headers(path, uri)
        except Exception:
            _parse_walked(walked, guard)  # an earlier file's defect is first
            raise
        walked.append((path, uri, raws, size, complete))
        pending += len(raws)
        if pending >= _PARSE_BLOCK_HEADERS:
            results += _parse_walked(walked, guard)
            walked, pending = [], 0
    results += _parse_walked(walked, guard)
    return results


def read_file_metadata(
    path: str | Path, uri: str | None = None
) -> tuple[FileMetadata, dict[str, np.ndarray]]:
    """:func:`read_files_metadata` of one file."""
    uri = uri if uri is not None else str(path)
    return read_files_metadata([(path, uri)])[0]


def _raise_first_defect(walked: Sequence[_Walked], guard: _Guard) -> NoReturn:
    """The scalar parser over walked files, in order: the error oracle."""
    for path, uri, raws, size, _ in walked:
        with guard(uri, path):
            if not raws:
                raise CorruptFileError("empty volume", uri=uri, offset=0)
            _unpack_headers(raws, uri, size)
    raise AssertionError("vector and scalar header checks disagree")


def _parse_walked(
    walked: Sequence[_Walked], guard: _Guard
) -> list[tuple[FileMetadata, dict[str, np.ndarray]]]:
    """One vectorised parse of the headers of every walked file: the record
    level as columns — each file's a slice of the block's, one entry per
    record in file order — and the file level reduced from them.

    The vector checks (a complete walk of a non-empty file, a usable rate,
    the last sample inside the timestamp range, ASCII identifiers) only
    *notice* that some header in the block fails one of
    :meth:`RecordHeader.unpack`'s: the scalar parser then names the first
    defect, before any cast an unsound value would reach."""
    if not walked:
        return []
    _, _, headers, sizes, complete = zip(*walked)
    if not (all(headers) and all(complete)):
        _raise_first_defect(walked, guard)
    parsed = np.frombuffer(
        b"".join(chain.from_iterable(headers)), dtype=HEADER_DTYPE
    )
    start_time = parsed["start_time"].astype(np.int64)
    sample_rate = parsed["sample_rate"].astype(np.float64)
    nsamples = parsed["nsamples"].astype(np.int64)
    byte_length = parsed["payload_len"].astype(np.int64) + HEADER_SIZE
    # last_sample_offset, vectorised: (n-1) * step in that association,
    # rounded half to even.
    last = np.maximum(nsamples - 1, 0)
    with np.errstate(all="ignore"):
        reach = np.where(last > 0, last * (1_000_000 / sample_rate), 0.0)
        sound = (
            (sample_rate > 0)
            & (sample_rate < np.inf)
            & (reach < INT64_MAX - np.maximum(start_time, 0))
        )
    if not (sound.all() and parsed["identifiers"].max() < 128):
        _raise_first_defect(walked, guard)
    end_time = start_time + np.rint(reach).astype(np.int64)

    counts = np.fromiter(map(len, headers), np.int64, len(walked))
    ends = np.cumsum(counts)
    starts = ends - counts
    # Offsets count from each file's first record, not the block's.
    offset = np.cumsum(byte_length) - byte_length
    columns = dict(
        start_time=start_time, sample_rate=sample_rate, nsamples=nsamples,
        end_time=end_time,
        byte_offset=offset - np.repeat(offset[starts], counts),
        byte_length=byte_length,
    )
    # Each file is named by its first header.
    first = parsed["identifiers"][starts]
    identifiers = []
    for at, to in IDENTIFIER_BOUNDS:
        text = first[:, at:to].tobytes().decode("ascii")
        identifiers.append(
            [text[k : k + to - at].strip() for k in range(0, len(text), to - at)]
        )
    metas = map(
        FileMetadata,
        *identifiers,
        np.minimum.reduceat(start_time, starts).tolist(),
        np.maximum.reduceat(end_time, starts).tolist(),
        counts.tolist(),
        np.add.reduceat(nsamples, starts).tolist(),
        sizes,
    )
    return [
        (meta, {name: column[at:to] for name, column in columns.items()})
        for meta, at, to in zip(metas, starts.tolist(), ends.tolist())
    ]
