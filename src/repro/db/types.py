"""Column type system for the repro engine.

The engine is columnar: every value in a column shares one of the types below.
Timestamps are stored as int64 microseconds since the Unix epoch (UTC), which
mirrors how analytical column stores materialize them and makes range
predicates plain integer comparisons.
"""

from __future__ import annotations

import datetime as _dt
import enum
import re

import numpy as np

from .errors import TypeError_


class DataType(enum.Enum):
    """The value types a column may hold."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    TIMESTAMP = "timestamp"  # int64 microseconds since epoch, UTC
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used for the physical vector of this type.

        STRING columns are dictionary encoded: the physical vector holds
        int32 codes into a per-column dictionary, so their numpy dtype is
        int32.
        """
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64)


_NUMPY_DTYPES = {
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.STRING: np.dtype(np.int32),
    DataType.TIMESTAMP: np.dtype(np.int64),
    DataType.BOOL: np.dtype(np.bool_),
}

_EPOCH = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)

# Accepts '2010-01-12', '2010-01-12T22:15:00', '2010-01-12 22:15:00.000'
_TIMESTAMP_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})"
    r"(?:[T ](\d{2}):(\d{2}):(\d{2})(?:\.(\d{1,6}))?)?$"
)


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601-ish timestamp literal into epoch microseconds.

    Raises :class:`TypeError_` when the text is not a timestamp.
    """
    match = _TIMESTAMP_RE.match(text.strip())
    if match is None:
        raise TypeError_(f"invalid timestamp literal: {text!r}")
    year, month, day = int(match[1]), int(match[2]), int(match[3])
    hour = int(match[4]) if match[4] else 0
    minute = int(match[5]) if match[5] else 0
    second = int(match[6]) if match[6] else 0
    fraction = match[7] or ""
    micros = int(fraction.ljust(6, "0")) if fraction else 0
    try:
        moment = _dt.datetime(
            year, month, day, hour, minute, second, micros,
            tzinfo=_dt.timezone.utc,
        )
    except ValueError as exc:
        raise TypeError_(f"invalid timestamp literal: {text!r}: {exc}") from exc
    return int((moment - _EPOCH) / _dt.timedelta(microseconds=1))


def format_timestamp(micros: int) -> str:
    """Render epoch microseconds as an ISO-8601 string (inverse of parse)."""
    moment = _EPOCH + _dt.timedelta(microseconds=int(micros))
    if micros % 1_000_000:
        return moment.strftime("%Y-%m-%dT%H:%M:%S.%f")
    return moment.strftime("%Y-%m-%dT%H:%M:%S")


def looks_like_timestamp(text: str) -> bool:
    """True when a string literal matches the timestamp grammar."""
    return _TIMESTAMP_RE.match(text.strip()) is not None


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """The result type of an arithmetic combination of two numeric types."""
    if not (left.is_numeric and right.is_numeric):
        raise TypeError_(f"cannot combine {left.value} and {right.value} arithmetically")
    if DataType.FLOAT64 in (left, right):
        return DataType.FLOAT64
    return DataType.INT64


def comparable(left: DataType, right: DataType) -> bool:
    """Whether values of the two types may be compared with <, =, etc.

    Numerics compare with each other; timestamps compare with timestamps
    (and with strings, which front-ends pass as timestamp literals);
    strings with strings; bools only with bools for equality.
    """
    if left == right:
        return True
    if left.is_numeric and right.is_numeric:
        return True
    pair = {left, right}
    if pair == {DataType.TIMESTAMP, DataType.STRING}:
        return True
    return False
