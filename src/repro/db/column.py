"""Columnar vectors.

A :class:`Column` is an immutable-by-convention wrapper around a numpy array.
String columns are dictionary encoded the way analytical column stores do it:
the physical vector holds int32 codes into a per-column :class:`StringDictionary`.

Columns are non-nullable; the scientific schemas this engine serves (file and
record headers, sample streams) have no missing values, and keeping validity
masks out of the hot path keeps every kernel a plain numpy operation. Aggregates
over empty inputs surface ``None`` at the result layer instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from .errors import TypeError_
from .types import DataType, format_timestamp, parse_timestamp


class StringDictionary:
    """An append-only mapping between strings and dense int32 codes.

    Because entries are only ever appended, everything derived from them
    (the byte total, the decode table, the sort ranks) is kept incrementally
    or cached by the length it was computed at.
    """

    __slots__ = ("_values", "_codes", "_nbytes", "_table", "_ranks")

    def __init__(self, values: Iterable[str] = ()) -> None:
        self._values: list[str] = []
        self._codes: dict[str, int] = {}
        self._nbytes = 0
        self._table = np.empty(0, dtype=object)
        self._ranks = np.empty(0, dtype=np.int64)
        for value in values:
            self.encode_one(value)

    def __len__(self) -> int:
        return len(self._values)

    def encode_one(self, value: str) -> int:
        """Return the code for ``value``, appending it if new."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            self._codes[value] = code
            self._nbytes += len(value) + 8
        return code

    def encode(self, values: Iterable[str]) -> np.ndarray:
        return np.fromiter(
            (self.encode_one(v) for v in values), dtype=np.int32, count=-1
        )

    def lookup(self, value: str) -> int | None:
        """The code for ``value``, or None when absent (useful for filters)."""
        return self._codes.get(value)

    def decode_one(self, code: int) -> str:
        return self._values[code]

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Decode a code vector into a numpy object array of strings."""
        if len(self._table) != len(self._values):
            self._table = np.asarray(self._values, dtype=object)
        if len(self._table) == 0:
            return np.empty(len(codes), dtype=object)
        return self._table[codes]

    @property
    def values(self) -> list[str]:
        """A copy of the entries in code order."""
        return list(self._values)

    @property
    def entries(self) -> Sequence[str]:
        """The entries in code order, without copying (do not mutate)."""
        return self._values

    @property
    def nbytes(self) -> int:
        """Approximate footprint: each entry's length plus 8 bytes."""
        return self._nbytes

    def sort_ranks(self) -> np.ndarray:
        """``ranks[code]`` = position of that entry in sorted string order.

        Entries are distinct, so the ranks are a permutation of
        ``0..len-1``: gathering them through a code vector turns string
        comparison into integer comparison without decoding a row.
        """
        n = len(self._values)
        if len(self._ranks) != n:
            order = sorted(range(n), key=self._values.__getitem__)
            ranks = np.empty(n, dtype=np.int64)
            ranks[order] = np.arange(n, dtype=np.int64)
            self._ranks = ranks
        return self._ranks

    def translate_to(self, other: "StringDictionary") -> np.ndarray:
        """``table[code]`` = ``other``'s code for the same string.

        Strings ``other`` lacks all map to ``len(other)`` — one code past its
        range, so they compare unequal to every code ``other`` assigns.
        """
        miss = len(other)
        lookup = other._codes.get
        return np.fromiter(
            (lookup(value, miss) for value in self._values),
            dtype=np.int64,
            count=len(self._values),
        )


class Column:
    """A typed columnar vector; the unit all physical operators exchange."""

    __slots__ = ("dtype", "values", "dictionary")

    def __init__(
        self,
        dtype: DataType,
        values: np.ndarray,
        dictionary: StringDictionary | None = None,
    ) -> None:
        expected = dtype.numpy_dtype
        if values.dtype != expected:
            values = values.astype(expected)
        if dtype is DataType.STRING and dictionary is None:
            raise TypeError_("string columns require a dictionary")
        self.dtype = dtype
        self.values = values
        self.dictionary = dictionary

    # -- construction -----------------------------------------------------

    @classmethod
    def from_pylist(cls, dtype: DataType, items: Sequence[Any]) -> "Column":
        """Build a column from Python values, coercing literals as SQL would."""
        if dtype is DataType.STRING:
            dictionary = StringDictionary()
            codes = dictionary.encode(str(item) for item in items)
            return cls(dtype, codes, dictionary)
        if dtype is DataType.TIMESTAMP:
            converted = [
                parse_timestamp(item) if isinstance(item, str) else int(item)
                for item in items
            ]
            return cls(dtype, np.asarray(converted, dtype=np.int64))
        return cls(dtype, np.asarray(items, dtype=dtype.numpy_dtype))

    @classmethod
    def empty(cls, dtype: DataType) -> "Column":
        dictionary = StringDictionary() if dtype is DataType.STRING else None
        return cls(dtype, np.empty(0, dtype=dtype.numpy_dtype), dictionary)

    @classmethod
    def constant(cls, dtype: DataType, value: Any, length: int) -> "Column":
        """A column repeating one value ``length`` times."""
        if dtype is DataType.STRING:
            dictionary = StringDictionary()
            code = dictionary.encode_one(str(value))
            return cls(dtype, np.full(length, code, dtype=np.int32), dictionary)
        if dtype is DataType.TIMESTAMP and isinstance(value, str):
            value = parse_timestamp(value)
        return cls(dtype, np.full(length, value, dtype=dtype.numpy_dtype))

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Column({self.dtype.value}, n={len(self)})"

    # -- vector operations ---------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Positional gather (shared dictionary — codes stay valid)."""
        return Column(self.dtype, self.values[indices], self.dictionary)

    def filter(self, mask: np.ndarray) -> "Column":
        return Column(self.dtype, self.values[mask], self.dictionary)

    def slice(self, start: int, stop: int) -> "Column":
        return Column(self.dtype, self.values[start:stop], self.dictionary)

    def decoded(self) -> np.ndarray:
        """The logical values as a numpy array (strings decoded to objects)."""
        if self.dtype is DataType.STRING:
            assert self.dictionary is not None
            return self.dictionary.decode(self.values)
        return self.values

    def to_pylist(self) -> list[Any]:
        """The column as plain Python values (timestamps stay integers)."""
        if self.dtype is DataType.STRING:
            return list(self.decoded())
        if self.dtype is DataType.BOOL:
            return [bool(v) for v in self.values]
        if self.dtype is DataType.FLOAT64:
            return [float(v) for v in self.values]
        return [int(v) for v in self.values]

    def render(self) -> list[str]:
        """Human-readable rendering (timestamps formatted as ISO strings)."""
        if self.dtype is DataType.TIMESTAMP:
            return [format_timestamp(v) for v in self.values]
        return [str(v) for v in self.to_pylist()]

    def nbytes(self) -> int:
        """Approximate storage footprint of this column in bytes."""
        total = int(self.values.nbytes)
        if self.dictionary is not None:
            total += self.dictionary.nbytes
        return total


def concat_columns(columns: Sequence[Column]) -> Column:
    """Concatenate columns of identical type into one column.

    String columns are re-encoded into a fresh shared dictionary since each
    input dictionary assigns its own codes.
    """
    if not columns:
        raise TypeError_("concat_columns requires at least one column")
    dtype = columns[0].dtype
    for col in columns[1:]:
        if col.dtype != dtype:
            raise TypeError_(
                f"cannot concatenate {col.dtype.value} with {dtype.value}"
            )
    if dtype is DataType.STRING:
        dictionary = StringDictionary()
        parts = []
        for col in columns:
            assert col.dictionary is not None
            remap = np.asarray(
                [dictionary.encode_one(s) for s in col.dictionary.entries],
                dtype=np.int32,
            )
            if len(remap):
                parts.append(remap[col.values])
            else:
                parts.append(np.empty(0, dtype=np.int32))
        return Column(dtype, np.concatenate(parts) if parts else
                      np.empty(0, dtype=np.int32), dictionary)
    return Column(dtype, np.concatenate([c.values for c in columns]))
