"""CSV time-series format — the second format proving generalization.

Layout of a ``.tscsv`` file::

    # network=WX station=AMS location= channel=TMP sample_rate=0.0166667
    # start_time=1263254400000000 nsamples=1440
    t_us,value
    1263254400000000,5.25
    ...

All metadata lives in the two comment lines, so
:meth:`CsvExtractor.extract_metadata` reads a small prefix of the file, a
chunk at a time until the comment lines end — the cheap-metadata property
every format extractor must provide. The body is one record per file
(record_id 0). Every read goes through the file's byte source.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from ..db.errors import CorruptFileError, TruncatedFileError
from ..mseed.iohooks import ByteSource
from ..mseed.record import last_sample_offset, sample_time_offsets
from .formats import (
    ExtractedMetadata,
    FileMetaRow,
    MountedFile,
    MountOutcome,
    MountRequest,
    RecordColumns,
    extraction_guard,
)
from ._batches import explicit_mount

SUFFIX = ".tscsv"

# How much a header-only read asks for at a time.
_CHUNK_BYTES = 8192


def write_csv_timeseries(
    path: str | Path,
    network: str,
    station: str,
    location: str,
    channel: str,
    sample_rate: float,
    start_time: int,
    values: np.ndarray,
) -> None:
    """Write one CSV time-series file in the layout CsvExtractor reads."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    values = np.asarray(values, dtype=np.float64)
    times = start_time + sample_time_offsets(len(values), sample_rate)
    with open(path, "w") as handle:
        handle.write(
            f"# network={network} station={station} location={location} "
            f"channel={channel} sample_rate={sample_rate!r}\n"
        )
        handle.write(f"# start_time={start_time} nsamples={len(values)}\n")
        handle.write("t_us,value\n")
        for t, v in zip(times, values):
            handle.write(f"{int(t)},{float(v)!r}\n")


def _head(source: ByteSource) -> str:
    """The file's opening, read a chunk at a time until a line that is not
    a comment begins (or the file ends): a header-only read."""
    data = b""
    with source.open() as handle:
        while chunk := handle.read(_CHUNK_BYTES):
            data += chunk
            *lines, last = data.split(b"\n")
            if not all(line.startswith(b"#") for line in lines) or (
                last and not last.startswith(b"#")
            ):
                break
    # A character the last chunk cut lies past the comment lines.
    return data.decode(errors="replace")


def _parse_header(text: str) -> tuple[dict[str, str], int]:
    """The fields of the comment lines that open ``text``, and the
    characters those lines take (what a header-only read costs)."""
    fields: dict[str, str] = {}
    length = 0
    for line in io.StringIO(text):
        if not line.startswith("#"):
            break
        length += len(line)
        for token in line[1:].split():
            if "=" in token:
                key, _, value = token.partition("=")
                fields[key] = value
    required = {"station", "channel", "sample_rate", "start_time", "nsamples"}
    missing = required - fields.keys()
    if missing:
        # No uri here — extraction_guard annotates it at the extractor level.
        raise CorruptFileError(
            f"missing header fields {sorted(missing)}", offset=0
        )
    return fields, length


class CsvExtractor:
    """CSV time-series → relational schema mapping."""

    format_name = "csv-timeseries"
    suffix = SUFFIX

    def extract_metadata(self, source: ByteSource) -> ExtractedMetadata:
        with extraction_guard(source):
            fields, _ = _parse_header(_head(source))
            start_time = int(fields["start_time"])
            nsamples = int(fields["nsamples"])
            sample_rate = float(fields["sample_rate"])
            size_bytes = source.size
        end_time = start_time + last_sample_offset(nsamples, sample_rate)
        file_row = FileMetaRow(
            uri=source.uri,
            network=fields.get("network", ""),
            station=fields["station"],
            location=fields.get("location", ""),
            channel=fields["channel"],
            start_time=start_time,
            end_time=end_time,
            nrecords=1,
            nsamples=nsamples,
            size_bytes=size_bytes,
        )
        records = RecordColumns(
            start_time=np.array([start_time], dtype=np.int64),
            end_time=np.array([end_time], dtype=np.int64),
            sample_rate=np.array([sample_rate], dtype=np.float64),
            nsamples=np.array([nsamples], dtype=np.int64),
            byte_offset=np.zeros(1, dtype=np.int64),
            byte_length=np.array([file_row.size_bytes], dtype=np.int64),
        )
        return ExtractedMetadata(file_row, records)

    def mount(self, source: ByteSource) -> MountedFile:
        uri = source.uri
        with extraction_guard(source):
            with source.open() as handle:
                text = handle.read().decode()
            fields, _ = _parse_header(text)
            nsamples = int(fields["nsamples"])
            body = io.StringIO("".join(
                line for line in io.StringIO(text)
                if not line.startswith(("#", "t_us"))
            ))
            if nsamples == 0:
                return _no_samples(uri, records=1)
            data = np.loadtxt(body, delimiter=",", dtype=np.float64, ndmin=2)
        if data.shape[0] < nsamples:
            raise TruncatedFileError(
                f"header claims {nsamples} samples, body has "
                f"{data.shape[0]}",
                uri=uri,
            )
        if data.shape[0] > nsamples:
            raise CorruptFileError(
                f"header claims {nsamples} samples, body has "
                f"{data.shape[0]}",
                uri=uri,
            )
        return explicit_mount(
            uri,
            record_id=np.zeros(nsamples, dtype=np.int64),
            sample_time=data[:, 0].astype(np.int64),
            sample_value=data[:, 1],
            records=1,
        )

    def mount_selective(
        self, source: ByteSource, request: MountRequest
    ) -> MountOutcome:
        """Single-record format: all-or-nothing at record granularity.

        A request that does not overlap the file's one record skips the
        body parse entirely (only the comment-line prefix is read to learn
        the record's span when the caller supplied no byte map).
        """
        spans = request.records
        if spans is not None and len(spans) == 1:
            start_time, end_time = spans[0].start_time, spans[0].end_time
            span_bytes = 0  # known from metadata; nothing read yet
        else:
            with extraction_guard(source):
                fields, span_bytes = _parse_header(_head(source))
                start_time = int(fields["start_time"])
                end_time = start_time + last_sample_offset(
                    int(fields["nsamples"]), float(fields["sample_rate"])
                )
        if not request.wants(start_time, end_time):
            return MountOutcome(
                _no_samples(source.uri, records=0), span_bytes, 0, 1
            )
        mounted = self.mount(source)
        return MountOutcome(mounted, source.size, 1, 0)


def _no_samples(uri: str, records: int) -> MountedFile:
    empty = np.empty(0, dtype=np.int64)
    return explicit_mount(
        uri, empty, empty.copy(), np.empty(0, dtype=np.float64), records
    )

