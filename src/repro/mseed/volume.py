"""xSEED volumes: files made of concatenated records.

The key asymmetry the paper exploits is implemented here:
:func:`scan_headers` reads only the 64-byte headers and *seeks over* every
payload, so metadata extraction costs a tiny fraction of a full parse, while
:func:`decode_volume` decodes everything (what eager ingestion and mounting
do) and :func:`read_selected_records` the records a time window touches.
:func:`read_records` is the record-at-a-time API for tools and tests.

A mount is one buffer, one header parse and one decode. The bytes it needs
come off disk in as few reads as their layout allows — one ``read()`` for a
whole file, one per run of touching records a byte map selects — and the
headers in that buffer are parsed and checked together (``HEADER_DTYPE``),
the payloads decoded by one :func:`~repro.mseed.steim.steim_decode` call
that reads them where they lie. No :class:`RecordHeader` is built on the
way: the scalar parser runs only when a check fails, over the same bytes,
to name the first defect exactly as a record-at-a-time loop would.

Every parse failure raises a :class:`~repro.db.errors.FileIngestError`
subclass carrying the offending URI (the path, unless the caller passes the
repository URI) and the byte offset of the record that failed, so a corrupt
file surfaces with enough context to quarantine it.
"""

from __future__ import annotations

import os
import struct
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import (
    BinaryIO,
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

    File-at-a-time, not record-at-a-time: ``record_id``, ``start_time``,
    ``sample_rate`` and ``nsamples`` hold one entry per selected record, in
    file order, and ``samples`` their samples back to back as float64 (what
    ``D.sample_value`` holds), decoded by one :func:`steim_decode` call.
    """

    record_id: np.ndarray  # int64
    start_time: np.ndarray  # int64 µs
    sample_rate: np.ndarray  # float64 Hz
    nsamples: np.ndarray  # int64
    samples: np.ndarray  # float64
    bytes_read: int  # headers + payloads actually pulled off disk
    records_skipped: int

    @property
    def records_decoded(self) -> int:
        return len(self.record_id)


def coalesce_spans(
    spans: Sequence[tuple[int, int]], gap_bytes: int
) -> list[tuple[int, int]]:
    """Merge ``(start, end)`` byte ranges whose gaps are <= ``gap_bytes``.

    The range planner of every read by byte map: a selective mount reads
    one range per run of touching records (``gap_bytes=0``), and a remote
    one issues one ranged GET per range, absorbing a gap cheaper to stream
    through than to re-negotiate. Input ranges may overlap and arrive in
    any order.
    """
    ordered = sorted((s, e) for s, e in spans if e > s)
    if not ordered:
        return []
    merged: list[tuple[int, int]] = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start - last_end <= gap_bytes:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def decode_volume(path: str | Path, uri: str | None = None) -> SelectiveRead:
    """Every record of a volume, decoded file-at-a-time (a whole-file
    mount): one ``read()`` of the file, then :func:`_decoded`."""
    uri = uri if uri is not None else str(path)
    with open_volume(path, uri) as handle:
        buffer = handle.read()
    at, complete = _record_starts(buffer)
    starts = np.asarray(at, dtype=np.int64)
    read = (
        _decoded(buffer, starts, np.arange(len(at)), len(buffer), 0)
        if complete else None
    )
    if read is None:
        _raise_first_defect_in(_records_in(buffer, starts, starts), uri)
    return read


def read_selected_records(
    path: str | Path,
    interval: Interval,
    uri: str | None = None,
    spans: Optional[Sequence] = None,
) -> SelectiveRead:
    """Decode only the records whose header time span overlaps ``interval``.

    With a record byte map (``spans`` — objects carrying ``record_id``,
    ``byte_offset``, ``byte_length``, ``start_time``, ``end_time``), the
    read fetches each run of touching overlapping records in one range and
    touches nothing else: skipped records cost zero bytes. Every selected
    record's header is re-validated against its span — a map that no longer
    matches the file (rewritten since the metadata pass) raises
    :class:`~repro.db.errors.StaleFileError` instead of yielding torn rows.

    Without a byte map, the read walks the file header-by-header (64 bytes
    per record, like :func:`scan_headers`), seeking over every payload, then
    reads the payloads of the overlapping records, so the payload read +
    Steim decode — the dominant cost — is still skipped.
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
    chosen = [s for s in spans if overlaps(interval, s.start_time, s.end_time)]
    ranges = coalesce_spans(
        [(s.byte_offset, s.byte_offset + s.byte_length) for s in chosen], 0
    )
    parts = []
    with open_volume(path, uri) as handle:
        for lo, hi in ranges:
            handle.seek(lo)
            # Never past the end of the file, whatever a stale map claims.
            parts.append(handle.read(max(0, min(hi, size) - lo)))
    # Each record's range, and where the ranges lie read end to end.
    first = [lo for lo, _ in ranges]
    placed = list(accumulate((hi - lo for lo, hi in ranges), initial=0))
    where = [bisect_right(first, s.byte_offset) - 1 for s in chosen]
    bytes_read = sum(map(len, parts))
    if bytes_read == placed[-1] and all(
        s.byte_length >= HEADER_SIZE for s in chosen
    ):
        record_id, at, length, start_time = np.array(
            [
                (s.record_id, placed[r] + s.byte_offset - first[r],
                 s.byte_length, s.start_time)
                for s, r in zip(chosen, where)
            ],
            dtype=np.int64,
        ).reshape(-1, 4).T
        read = _decoded(
            b"".join(parts), at,
            record_id.copy(),  # kept by the mounted runs: not a view
            bytes_read, len(spans) - len(chosen), (start_time, length),
        )
        if read is not None:
            return read
    _raise_first_defect_in(
        [
            (s.byte_offset, parts[r][s.byte_offset - first[r]:][: s.byte_length])
            for s, r in zip(chosen, where)
        ],
        uri, chosen, size,
    )


def _read_by_header_walk(
    path: Path, interval: Interval, uri: str
) -> SelectiveRead:
    """Walk the headers, then read the overlapping records' payloads."""
    size = path.stat().st_size
    with open_volume(path, uri) as handle:
        raws, complete = _walk_headers(handle, size)
        if not complete:
            _raise_walk_defect(raws, size, interval, uri)
        parsed = np.frombuffer(b"".join(raws), dtype=HEADER_DTYPE)
        start_time, _, _, reach, sound = _header_columns(parsed)
        if not sound.all():
            _raise_walk_defect(raws, size, interval, uri)
        end_time = start_time + np.rint(reach).astype(np.int64)
        chosen = np.flatnonzero(
            (start_time <= interval[1]) & (end_time >= interval[0])
        )
        if (parsed["encoding"][chosen] != ENCODING_STEIM1).any():
            _raise_walk_defect(raws, size, interval, uri)
        length = parsed["payload_len"].astype(np.int64)
        offset = np.cumsum(length + HEADER_SIZE) - (length + HEADER_SIZE)
        buffer, at, whole = bytearray(), [], True
        for k in chosen.tolist():
            handle.seek(int(offset[k]) + HEADER_SIZE)
            payload = handle.read(int(length[k]))
            whole = whole and len(payload) == length[k]
            at.append(len(buffer))
            buffer += raws[k]
            buffer += payload
    starts = np.asarray(at, dtype=np.int64)
    bytes_read = sum(map(len, raws)) + len(buffer) - HEADER_SIZE * len(at)
    read = (
        _decoded(buffer, starts, chosen, bytes_read, len(raws) - len(chosen))
        if whole else None
    )
    if read is None:
        _raise_first_defect_in(
            _records_in(buffer, starts, offset[chosen]), uri
        )
    return read


def _record_starts(buffer: bytes) -> tuple[list[int], bool]:
    """Where each record of a volume read whole starts, and whether the
    records fill the buffer exactly. Looks only at ``magic`` and
    ``payload_len``, like :func:`_walk_headers`, and gives up after the same
    kind of record."""
    starts: list[int] = []
    at, size = 0, len(buffer)
    while at < size:
        starts.append(at)
        if at + HEADER_SIZE > size or not buffer.startswith(MAGIC, at):
            return starts, False
        (payload_len,) = _PAYLOAD_LEN.unpack_from(buffer, at + _PAYLOAD_LEN_AT)
        at += HEADER_SIZE + payload_len
    return starts, at == size


def _records_in(
    buffer: bytes, at: np.ndarray, offset: np.ndarray
) -> list[tuple[int, bytes]]:
    """``(file offset, bytes)`` of records laid end to end in ``buffer`` from
    positions ``at``, the last running to the buffer's end."""
    ends = [*at.tolist()[1:], len(buffer)]
    return [
        (o, bytes(buffer[a:e]))
        for o, a, e in zip(offset.tolist(), at.tolist(), ends)
    ]


_HEADER_BYTES = np.arange(HEADER_SIZE)


def _header_columns(
    parsed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``start_time``, ``sample_rate``, ``nsamples`` and the reach of the
    last sample (µs after the start, before rounding) of parsed headers, and
    which headers pass the checks of :meth:`RecordHeader.unpack` (magic, a
    usable rate, the last sample inside the timestamp range, ASCII
    identifiers). The vector checks only *notice* a defect; the scalar
    parser names it."""
    start_time = parsed["start_time"].astype(np.int64)
    sample_rate = parsed["sample_rate"].astype(np.float64)
    nsamples = parsed["nsamples"].astype(np.int64)
    # last_sample_offset, vectorised: (n-1) * step in that association;
    # end_time rounds it half to even.
    last = nsamples - 1
    with np.errstate(all="ignore"):
        reach = np.where(last > 0, last * (1_000_000 / sample_rate), 0.0)
        sound = (
            (sample_rate > 0)
            & (sample_rate < np.inf)
            & (reach < INT64_MAX - np.maximum(start_time, 0))
            & (parsed["magic"] == MAGIC)
        )
    if parsed["identifiers"].max(initial=0) >= 128:
        sound[:] = False
    return start_time, sample_rate, nsamples, reach, sound


def _decoded(
    buffer: bytes | bytearray,
    at: np.ndarray,
    record_id: np.ndarray,
    bytes_read: int,
    skipped: int,
    expected: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> Optional[SelectiveRead]:
    """The records whose headers lie at positions ``at`` of ``buffer``,
    parsed together and decoded by one kernel call — or None when a check
    the record-at-a-time loop makes would fail: a header
    :meth:`RecordHeader.unpack` rejects, an unknown encoding, with
    ``expected`` (the byte map's start times and record lengths) a stale
    map, or a Steim defect (a payload of broken frames among them). Each
    header lies whole in the buffer, and each payload too once its length
    is checked (against the byte map, or by the walk that found it)."""
    parsed = np.frombuffer(buffer, dtype=np.uint8)[
        at[:, None] + _HEADER_BYTES
    ].view(HEADER_DTYPE)[:, 0]
    start_time, sample_rate, nsamples, _, ok = _header_columns(parsed)
    length = parsed["payload_len"].astype(np.int64)
    ok &= parsed["encoding"] == ENCODING_STEIM1
    if expected is not None:
        ok &= (start_time == expected[0]) & (HEADER_SIZE + length == expected[1])
    if not ok.all():
        return None
    try:
        samples = steim_decode(
            buffer, nsamples, (at + HEADER_SIZE, length), dtype=np.float64
        )
    except SteimError:
        return None  # the oracle decodes again and names the record
    return SelectiveRead(
        record_id, start_time, sample_rate, nsamples, samples, bytes_read,
        skipped,
    )


def _raise_first_defect_in(
    records: Sequence[tuple[int, bytes]],
    uri: str,
    spans: Optional[Sequence] = None,
    size: int = 0,
) -> NoReturn:
    """The record-at-a-time loop :func:`_decoded` stands in for, over the
    ``(file offset, header + payload as read)`` of each selected record in
    order — with a byte map, each first checked against the file size and
    then its span: the mount's error oracle. Header, length and encoding
    defects come first, in record order; Steim defects after them all."""
    offsets, payloads, counts = [], [], []
    for k, (offset, raw) in enumerate(records):
        span = spans[k] if spans is not None else None
        if span is not None and offset + span.byte_length > size:
            raise TruncatedFileError(
                f"record ends at byte {offset + span.byte_length}, file "
                f"ends at {size}",
                uri=uri,
                offset=offset,
            )
        header = RecordHeader.unpack(raw, uri=uri, offset=offset)
        if span is not None and (
            header.start_time != span.start_time
            or HEADER_SIZE + header.payload_len != span.byte_length
        ):
            raise StaleFileError(
                "record byte map no longer matches the file on disk "
                f"(record {span.record_id}: header start_time/length "
                "drifted since the metadata pass)",
                uri=uri,
                offset=offset,
            )
        payload = raw[HEADER_SIZE : HEADER_SIZE + header.payload_len]
        if len(payload) != header.payload_len:
            raise TruncatedFileError(
                f"record payload truncated: {len(payload)} of "
                f"{header.payload_len} bytes",
                uri=uri,
                offset=offset + HEADER_SIZE,
            )
        if header.encoding != ENCODING_STEIM1:
            raise CorruptFileError(
                f"unknown encoding {header.encoding}", uri=uri, offset=offset
            )
        offsets.append(offset)
        payloads.append(payload)
        counts.append(header.nsamples)
    try:
        steim_decode(payloads, counts)
    except SteimError as exc:
        raise SteimError(
            exc.message,
            uri=uri,
            offset=offsets[exc.record] + HEADER_SIZE,
            cause=exc,
        ) from exc
    raise AssertionError("vector and scalar mount checks disagree")


def _raise_walk_defect(
    raws: Sequence[bytes], size: int, interval: Interval, uri: str
) -> NoReturn:
    """The header walk's error oracle: the first walked record whose header
    fails to parse, that overruns the file, or that is selected with an
    unknown encoding."""

    def encoding(header: RecordHeader, offset: int) -> None:
        if header.encoding != ENCODING_STEIM1 and overlaps(
            interval, header.start_time, header.end_time
        ):
            raise CorruptFileError(
                f"unknown encoding {header.encoding}", uri=uri, offset=offset
            )

    _unpack_headers(raws, uri, size, encoding)
    raise AssertionError("vector and scalar header checks disagree")


_PAYLOAD_LEN = struct.Struct(">I")
_PAYLOAD_LEN_AT = HEADER_DTYPE.fields["payload_len"][1]


def _walk_headers(handle: BinaryIO, size: int) -> tuple[list[bytes], bool]:
    """Read 64 bytes per record, seek over payloads: the raw headers, and
    whether the walk reached the end of a file of ``size`` bytes. Looks only
    at ``magic`` and ``payload_len``: it gives up after a header that is
    short, has no magic or overruns the size, and :func:`_unpack_headers`
    names why."""
    raws: list[bytes] = []
    offset = 0
    while raw := handle.read(HEADER_SIZE):
        raws.append(raw)
        if len(raw) < HEADER_SIZE or not raw.startswith(MAGIC):
            return raws, False
        (payload_len,) = _PAYLOAD_LEN.unpack_from(raw, _PAYLOAD_LEN_AT)
        offset += HEADER_SIZE + payload_len
        if offset > size:
            return raws, False
        handle.seek(payload_len, 1)
    return raws, True


def _walk_file(path: str | Path, uri: str) -> tuple[list[bytes], int, bool]:
    """:func:`_walk_headers` of one file: its raw headers, its size, and
    whether the walk reached the end."""
    size = os.stat(path).st_size
    with open_volume(path, uri) as handle:
        raws, complete = _walk_headers(handle, size)
    return raws, size, complete


def _unpack_headers(
    raws: Sequence[bytes],
    uri: str,
    size: int,
    check: Optional[Callable[[RecordHeader, int], None]] = None,
) -> list[RecordHeader]:
    """Scalar-parse walked headers in file order, against the file size (the
    metadata never promises samples a payload cannot hold), and ``check``
    each at its offset. The metadata pass's error oracle: the first record
    this rejects decides the error."""
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
        if check is not None:
            check(header, offset)
        headers.append(header)
        offset = record_end
    return headers


def scan_headers(
    path: str | Path, uri: str | None = None
) -> list[RecordHeader]:
    """Header-only scan, record by record: the cost is proportional to the
    number of records, not the number of samples."""
    uri = uri if uri is not None else str(path)
    raws, size, _ = _walk_file(path, uri)
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


# The columns a metadata pass fills, by their names in the tables: ``F``'s
# ten, one entry per file, and ``R``'s six read off the headers, one entry
# per record (``R.uri`` and ``R.record_id`` follow from ``F.uri`` and
# ``F.nrecords``). The first five of ``F``'s are strings.
FILE_COLUMNS = (
    "uri", "network", "station", "location", "channel",
    "start_time", "end_time", "nrecords", "nsamples", "size_bytes",
)
RECORD_COLUMNS = (
    "start_time", "end_time", "sample_rate", "nsamples",
    "byte_offset", "byte_length",
)
_RECORD_DTYPES = dict.fromkeys(RECORD_COLUMNS, np.int64) | {
    "sample_rate": np.float64
}


@dataclass(frozen=True, eq=False)
class MetadataBlock:
    """What a metadata pass read of a run of files, as columns.

    ``files`` holds ``F``'s ten columns, one entry per file in order: the
    five strings as lists, the rest as int64 arrays. ``records`` holds
    ``R``'s six, one entry per record: each file's records in file order,
    the files back to back, file ``k``'s ``files["nrecords"][k]`` long.

    A block is also the sequence of its files' per-file views, built only
    when indexed: ``block[k]`` is file ``k``'s :class:`FileMetadata` and its
    records' columns (views of the block's), ``block[i:j]`` the block of
    files ``i`` to ``j``.
    """

    files: dict[str, list[str] | np.ndarray]
    records: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.files["uri"])

    @cached_property
    def _record_ends(self) -> list[int]:
        return [0, *accumulate(self.files["nrecords"].tolist())]

    def __getitem__(self, k):
        ends = self._record_ends
        if isinstance(k, slice):
            if k.step not in (None, 1):
                raise TypeError("a block slices with step 1 only")
            lo, hi, _ = k.indices(len(self))
            hi = max(lo, hi)
            return MetadataBlock(
                {name: column[lo:hi] for name, column in self.files.items()},
                {
                    name: column[ends[lo] : ends[hi]]
                    for name, column in self.records.items()
                },
            )
        k = range(len(self))[k]  # an IndexError past either end
        files = self.files
        meta = FileMetadata(
            *(files[name][k] for name in FILE_COLUMNS[1:5]),
            *(int(files[name][k]) for name in FILE_COLUMNS[5:]),
        )
        lo, hi = ends[k], ends[k + 1]
        return meta, {
            name: column[lo:hi] for name, column in self.records.items()
        }

    def __iter__(self) -> Iterator[tuple[FileMetadata, dict[str, np.ndarray]]]:
        return map(self.__getitem__, range(len(self)))

    @staticmethod
    def stack(blocks: Sequence["MetadataBlock"]) -> "MetadataBlock":
        """The blocks' files one after another, as one block."""
        if len(blocks) == 1:
            return blocks[0]
        files = {
            name: list(chain.from_iterable(b.files[name] for b in blocks))
            for name in FILE_COLUMNS[:5]
        }
        files |= {
            name: np.concatenate(
                [b.files[name] for b in blocks] or [np.empty(0, np.int64)]
            )
            for name in FILE_COLUMNS[5:]
        }
        records = {
            name: np.concatenate(
                [b.records[name] for b in blocks] or [np.empty(0, dtype)]
            )
            for name, dtype in _RECORD_DTYPES.items()
        }
        return MetadataBlock(files, records)


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
) -> MetadataBlock:
    """What ALi's metadata pass runs: the ``F`` and ``R`` columns of each
    ``(path, uri)``, in order, as one block. Every file is walked as
    :func:`scan_headers` walks it; the headers of a whole block of files are
    parsed at once, and the parsed blocks stacked. ``size_bytes`` is the
    size the truncation check used.

    ``guard(uri, path)`` is entered around each file's walk and around its
    scalar re-parse: the caller's error taxonomy, applied per file. The
    first defective file in the order given decides the error raised — a
    walk that fails outright waits for the files walked before it to parse.
    """
    blocks: list[MetadataBlock] = []
    walked: list[_Walked] = []
    pending = 0
    for path, uri in files:
        try:
            with guard(uri, path):
                raws, size, complete = _walk_file(path, uri)
        except Exception:
            _parse_walked(walked, guard)  # an earlier file's defect is first
            raise
        walked.append((path, uri, raws, size, complete))
        pending += len(raws)
        if pending >= _PARSE_BLOCK_HEADERS:
            blocks.append(_parse_walked(walked, guard))
            walked, pending = [], 0
    blocks.append(_parse_walked(walked, guard))
    return MetadataBlock.stack(blocks)


def read_file_metadata(
    path: str | Path, uri: str | None = None
) -> tuple[FileMetadata, dict[str, np.ndarray]]:
    """:func:`read_files_metadata` of one file, as its per-file view."""
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


def _parse_walked(walked: Sequence[_Walked], guard: _Guard) -> MetadataBlock:
    """One vectorised parse of the headers of every walked file: the record
    level as columns, one entry per record in file order, and the file level
    reduced from them.

    The vector checks (a complete walk of a non-empty file, a usable rate,
    the last sample inside the timestamp range, ASCII identifiers) only
    *notice* that some header in the block fails one of
    :meth:`RecordHeader.unpack`'s: the scalar parser then names the first
    defect, before any cast an unsound value would reach."""
    if not walked:
        return MetadataBlock.stack([])
    _, uris, headers, sizes, complete = zip(*walked)
    if not (all(headers) and all(complete)):
        _raise_first_defect(walked, guard)
    parsed = np.frombuffer(
        b"".join(chain.from_iterable(headers)), dtype=HEADER_DTYPE
    )
    start_time, sample_rate, nsamples, reach, sound = _header_columns(parsed)
    if not sound.all():
        _raise_first_defect(walked, guard)
    end_time = start_time + np.rint(reach).astype(np.int64)
    byte_length = parsed["payload_len"].astype(np.int64) + HEADER_SIZE

    counts = np.fromiter(map(len, headers), np.int64, len(walked))
    starts = np.cumsum(counts) - counts
    # Offsets count from each file's first record, not the block's.
    offset = np.cumsum(byte_length) - byte_length
    records = dict(
        start_time=start_time, end_time=end_time, sample_rate=sample_rate,
        nsamples=nsamples,
        byte_offset=offset - np.repeat(offset[starts], counts),
        byte_length=byte_length,
    )
    # Each file is named by its first header.
    first = parsed["identifiers"][starts]
    files: dict[str, list[str] | np.ndarray] = {"uri": list(uris)}
    for name, (at, to) in zip(FILE_COLUMNS[1:5], IDENTIFIER_BOUNDS):
        text = first[:, at:to].tobytes().decode("ascii")
        files[name] = [
            text[k : k + to - at].strip() for k in range(0, len(text), to - at)
        ]
    files |= {
        "start_time": np.minimum.reduceat(start_time, starts),
        "end_time": np.maximum.reduceat(end_time, starts),
        "nrecords": counts,
        "nsamples": np.add.reduceat(nsamples, starts),
        "size_bytes": np.array(sizes, dtype=np.int64),
    }
    return MetadataBlock(files, records)
