"""xSEED records: fixed 64-byte headers + compressed payloads.

A record is the unit of a waveform file, mirroring mini-SEED: the header
carries the *metadata* (stream identifiers, start time, rate, sample count,
payload length) and the payload carries the *actual data* (Steim-compressed
samples). Everything two-stage execution needs for stage 1 lives in the
header; the payload is only touched when a file is mounted.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ..db.column import sample_offset, sample_offsets
from ..db.errors import CorruptFileError, TruncatedFileError
from .steim import SteimError, steim_decode, steim_encode

MAGIC = b"XSD1"
ENCODING_STEIM1 = 1
INT64_MAX = 2**63 - 1

# magic, sequence, network, station, location, channel, start_time (µs),
# sample_rate (Hz), nsamples, encoding, payload_len
_HEADER_STRUCT = struct.Struct(">4sI2s5s2s3sqdIHI")
_PAD = 64 - _HEADER_STRUCT.size
HEADER_SIZE = 64

assert _PAD >= 0, "header layout exceeds 64 bytes"

# The same layout as a structured dtype: a file's headers, joined, parse with
# one ``np.frombuffer``. The four identifiers are one block of raw bytes — an
# ``S`` field would drop the trailing NULs the scalar parser keeps.
HEADER_DTYPE = np.dtype(
    [
        ("magic", "S4"), ("sequence", ">u4"), ("identifiers", "u1", (12,)),
        ("start_time", ">i8"), ("sample_rate", ">f8"), ("nsamples", ">u4"),
        ("encoding", ">u2"), ("payload_len", ">u4"), ("pad", "V", _PAD),
    ]
)
# Where network, station, location and channel sit inside ``identifiers``.
IDENTIFIER_BOUNDS = ((0, 2), (2, 7), (7, 9), (9, 12))

assert HEADER_DTYPE.itemsize == HEADER_SIZE, "header dtype is not 64 bytes"


def sample_time_offsets(nsamples: int, sample_rate: float) -> np.ndarray:
    """µs offsets of each sample from the record's start time.

    Every index through :func:`~repro.db.column.sample_offsets`, the single
    source of truth for sample timing: the header's ``end_time``, a mounted
    record's run and its materialized times all derive from it, so
    header-based time pruning can never disagree with mounted sample times.
    """
    return sample_offsets(np.arange(nsamples), sample_rate)


def last_sample_offset(nsamples: int, sample_rate: float) -> int:
    """µs offset of the last sample — ``sample_time_offsets(...)[-1]``.

    Computed scalar-wise by :func:`~repro.db.column.sample_offset` so
    header-only scans stay O(1) per record and agree with the array form to
    the µs (a scalar path of its own once disagreed by 1 µs at interval
    boundaries).
    """
    if nsamples <= 1 or sample_rate <= 0:
        return 0
    return sample_offset(nsamples - 1, sample_rate)


def _fix(text: str, width: int) -> bytes:
    encoded = text.encode("ascii")
    if len(encoded) > width:
        raise SteimError(f"identifier {text!r} longer than {width} bytes")
    return encoded.ljust(width)


@dataclass(frozen=True)
class RecordHeader:
    """The metadata half of a record — what header-only scans return."""

    sequence: int
    network: str
    station: str
    location: str
    channel: str
    start_time: int  # µs since epoch, UTC
    sample_rate: float  # Hz
    nsamples: int
    encoding: int
    payload_len: int

    @property
    def end_time(self) -> int:
        """Time of the last sample (µs). Equals start_time for 1 sample."""
        return self.start_time + last_sample_offset(
            self.nsamples, self.sample_rate
        )

    def pack(self) -> bytes:
        return _HEADER_STRUCT.pack(
            MAGIC,
            self.sequence,
            _fix(self.network, 2),
            _fix(self.station, 5),
            _fix(self.location, 2),
            _fix(self.channel, 3),
            self.start_time,
            self.sample_rate,
            self.nsamples,
            self.encoding,
            self.payload_len,
        ) + b"\x00" * _PAD

    @classmethod
    def unpack(
        cls, raw: bytes, *, uri: str | None = None, offset: int = 0
    ) -> "RecordHeader":
        if len(raw) < HEADER_SIZE:
            raise TruncatedFileError(
                f"truncated header: {len(raw)} of {HEADER_SIZE} bytes",
                uri=uri,
                offset=offset,
            )
        try:
            (
                magic, sequence, network, station, location, channel,
                start_time, sample_rate, nsamples, encoding, payload_len,
            ) = _HEADER_STRUCT.unpack(raw[: _HEADER_STRUCT.size])
        except struct.error as exc:
            raise CorruptFileError(
                f"malformed header: {exc}", uri=uri, offset=offset, cause=exc
            ) from exc
        if magic != MAGIC:
            raise CorruptFileError(
                f"bad magic {magic!r}", uri=uri, offset=offset
            )
        if not 0 < sample_rate < math.inf:  # also false for NaN
            raise CorruptFileError(
                f"unusable sample rate {sample_rate!r}", uri=uri, offset=offset
            )
        # Timestamps are int64 µs everywhere downstream: the last sample must
        # lie below the maximum. (The bound is rounded to a float so that the
        # columnar parse compares identically.)
        reach = (
            (nsamples - 1) * (1_000_000 / sample_rate) if nsamples > 1 else 0.0
        )
        if not reach < float(INT64_MAX - max(start_time, 0)):
            raise CorruptFileError(
                "last sample lies beyond the timestamp range",
                uri=uri,
                offset=offset,
            )
        try:
            identifiers = [
                raw_id.decode("ascii").strip()
                for raw_id in (network, station, location, channel)
            ]
        except UnicodeDecodeError as exc:
            raise CorruptFileError(
                f"non-ASCII stream identifier: {exc}",
                uri=uri,
                offset=offset,
                cause=exc,
            ) from exc
        return cls(
            sequence=sequence,
            network=identifiers[0],
            station=identifiers[1],
            location=identifiers[2],
            channel=identifiers[3],
            start_time=start_time,
            sample_rate=sample_rate,
            nsamples=nsamples,
            encoding=encoding,
            payload_len=payload_len,
        )


@dataclass(frozen=True)
class XSeedRecord:
    """A full record: header plus decoded samples.

    ``payload`` caches the compressed bytes so creating and then writing a
    record compresses only once.
    """

    header: RecordHeader
    samples: np.ndarray  # int32
    payload: bytes = b""

    @classmethod
    def create(
        cls,
        sequence: int,
        network: str,
        station: str,
        location: str,
        channel: str,
        start_time: int,
        sample_rate: float,
        samples: np.ndarray,
    ) -> "XSeedRecord":
        samples = np.asarray(samples, dtype=np.int32)
        payload = steim_encode(samples)
        header = RecordHeader(
            sequence=sequence,
            network=network,
            station=station,
            location=location,
            channel=channel,
            start_time=start_time,
            sample_rate=sample_rate,
            nsamples=len(samples),
            encoding=ENCODING_STEIM1,
            payload_len=len(payload),
        )
        return cls(header, samples, payload)

    def pack(self) -> bytes:
        payload = self.payload if self.payload else steim_encode(self.samples)
        header = RecordHeader(
            **{**self.header.__dict__, "payload_len": len(payload)}
        )
        return header.pack() + payload

    @classmethod
    def unpack(
        cls, raw: bytes, *, uri: str | None = None, offset: int = 0
    ) -> "XSeedRecord":
        header = RecordHeader.unpack(raw, uri=uri, offset=offset)
        payload = raw[HEADER_SIZE: HEADER_SIZE + header.payload_len]
        if len(payload) != header.payload_len:
            raise TruncatedFileError(
                f"truncated payload: {len(payload)} of "
                f"{header.payload_len} bytes",
                uri=uri,
                offset=offset + HEADER_SIZE,
            )
        if header.encoding != ENCODING_STEIM1:
            raise CorruptFileError(
                f"unknown encoding {header.encoding}",
                uri=uri,
                offset=offset,
            )
        try:
            samples = steim_decode(payload, header.nsamples)
        except SteimError as exc:
            raise SteimError(
                exc.message,
                uri=uri,
                offset=offset + HEADER_SIZE,
                cause=exc,
            ) from exc
        return cls(header, samples, payload)
