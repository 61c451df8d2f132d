"""Columnar vectors.

A :class:`Column` is an immutable-by-convention wrapper around a numpy array.
String columns are dictionary encoded the way analytical column stores do it:
the physical vector holds int32 codes into a per-column :class:`StringDictionary`.

Columns are non-nullable; the scientific schemas this engine serves (file and
record headers, sample streams) have no missing values, and keeping validity
masks out of the hot path keeps every kernel a plain numpy operation. Aggregates
over empty inputs surface ``None`` at the result layer instead.

A regularly sampled series has a second, *run-encoded* form: a
:class:`RunColumn` derives its rows from the :class:`RecordRuns` of its batch
(one run per record) instead of holding them, and builds them only when read.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any, NamedTuple, Optional, Union

import numpy as np

from .errors import TypeError_
from .types import DataType, format_timestamp, parse_timestamp


def sample_offsets(index: Any, sample_rate: Any) -> np.ndarray:
    """µs offsets from a record's start time of its samples ``index``,
    sampled at ``sample_rate`` Hz: ``round(index * (10**6 / rate))``.

    The one definition of sample timing. Every element is computed on its
    own, so an offset does not depend on which other indices (or rates) are
    computed with it: a record's ``end_time``, its materialized sample
    times and a run's slice bounds all agree to the µs.
    """
    return np.rint(index * (1_000_000 / sample_rate)).astype(np.int64)


def sample_offset(index: int, sample_rate: float) -> int:
    """:func:`sample_offsets` of one index, on Python numbers (the same
    float operations, the same round-half-to-even): what a header-only scan
    or a run's cut needs without building an array."""
    return int(round(index * (1_000_000 / sample_rate)))


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

    def materialize(self, rows: Optional[np.ndarray] = None) -> "Column":
        """The column's rows as stored values: itself, or its ``rows``."""
        return self if rows is None else self.take(rows)


class Blocks(NamedTuple):
    """Rows ``start[i]`` up to ``start[i] + length[i]``, block after block
    in the order given: a row selection copied block by block, not row by
    row."""

    start: np.ndarray
    length: np.ndarray

    @classmethod
    def of(cls, start: np.ndarray, length: np.ndarray) -> "Blocks":
        """Increasing pieces, empty ones dropped and touching ones merged."""
        filled = length > 0
        if not filled.all():
            start, length = start[filled], length[filled]
        if len(start) < 2:
            return cls(start, length)
        heads = np.flatnonzero(
            np.append(True, start[1:] != start[:-1] + length[:-1])
        )
        return cls(start[heads], np.add.reduceat(length, heads))

    def rows(self) -> np.ndarray:
        ends = np.cumsum(self.length)
        total = int(ends[-1]) if len(ends) else 0
        shift = self.start - (ends - self.length)
        return np.repeat(shift, self.length) + np.arange(total)

    def gather(self, values: np.ndarray) -> np.ndarray:
        """``values`` at these rows, copied: never a view that would keep
        all of ``values`` alive behind a smaller array (a cache entry's
        bytes are what its arrays say)."""
        return np.concatenate(
            [values[:0]]
            + [values[s:s + n] for s, n in zip(self.start.tolist(),
                                               self.length.tolist())]
        )


# The rows a batch keeps, in order: all of them (None), blocks, or a
# boolean mask.
RowSelection = Union[None, Blocks, np.ndarray]


class RecordRuns:
    """Per-record runs: what a run-encoded batch stores instead of its
    ``uri``, ``record_id`` and ``sample_time`` columns.

    Run ``j`` covers rows ``offset[j]`` to ``offset[j] + length[j]`` of its
    batch: samples ``first[j]``, ``first[j] + 1``, … of record
    ``record_id[j]`` of file ``uri[j]``, which starts at ``start_time[j]``
    and is sampled at ``sample_rate[j]`` Hz. Runs tile the batch in row
    order; a run may be empty (a record holding no samples). A row's
    ``uri`` and ``record_id`` are its run's; its ``sample_time`` is
    ``start_time + sample_offsets(index, sample_rate)``.

    Immutable by convention: every operation returns new runs and new
    arrays, so runs a cache entry holds never grow.
    """

    __slots__ = ("uri", "record_id", "offset", "length", "first",
                 "start_time", "sample_rate", "num_rows")

    def __init__(
        self,
        uri: Column,
        record_id: np.ndarray,
        offset: np.ndarray,
        length: np.ndarray,
        first: np.ndarray,
        start_time: np.ndarray,
        sample_rate: np.ndarray,
    ) -> None:
        self.uri = uri  # STRING, one code per run
        self.record_id = record_id
        self.offset = offset
        self.length = length
        self.first = first
        self.start_time = start_time
        self.sample_rate = sample_rate
        self.num_rows = int(offset[-1] + length[-1]) if len(length) else 0

    @classmethod
    def of_records(
        cls,
        uri: str,
        record_id: Sequence[int],
        nsamples: Sequence[int],
        start_time: Sequence[int],
        sample_rate: Sequence[float],
    ) -> "RecordRuns":
        """One run per whole record of one file, in the order given."""
        length = np.asarray(nsamples, dtype=np.int64)
        return cls(
            Column.constant(DataType.STRING, uri, len(length)),
            np.asarray(record_id, dtype=np.int64),
            np.cumsum(length) - length,
            length,
            np.zeros(len(length), dtype=np.int64),
            np.asarray(start_time, dtype=np.int64),
            np.asarray(sample_rate, dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: Sequence["RecordRuns"]) -> "RecordRuns":
        """The runs of batches stacked in order."""
        shifts = np.cumsum([0] + [part.num_rows for part in parts[:-1]])

        def stacked(name: str) -> np.ndarray:
            return np.concatenate([getattr(part, name) for part in parts])

        return cls(
            concat_columns([part.uri for part in parts]),
            stacked("record_id"),
            np.concatenate([p.offset + s for p, s in zip(parts, shifts)]),
            stacked("length"),
            stacked("first"),
            stacked("start_time"),
            stacked("sample_rate"),
        )

    def __len__(self) -> int:
        return len(self.length)

    def nbytes(self) -> int:
        arrays = (self.record_id, self.offset, self.length, self.first,
                  self.start_time, self.sample_rate)
        return self.uri.nbytes() + sum(int(a.nbytes) for a in arrays)

    def materialize(self, kind: str, rows: Optional[np.ndarray] = None) -> Column:
        """Column ``kind`` (``uri``, ``record_id`` or ``sample_time``) at
        ``rows``, every row in order by default.

        The one place those columns are built from runs. Each call returns
        new arrays and keeps none of them.
        """
        if rows is None:
            run = np.repeat(np.arange(len(self)), self.length)
            position = np.arange(len(run))
        else:
            position = np.asarray(rows, dtype=np.int64)
            run = np.searchsorted(self.offset, position, side="right") - 1
        if kind == "uri":
            return self.uri.take(run)
        if kind == "record_id":
            return Column(DataType.INT64, self.record_id[run])
        index = self.first[run] + (position - self.offset[run])
        return Column(
            DataType.TIMESTAMP,
            self.start_time[run] + sample_offsets(index, self.sample_rate[run]),
        )

    def within(self, lo: int, hi: int) -> tuple["RecordRuns", RowSelection]:
        """The samples timed in ``[lo, hi]``: the runs cut to them (a run
        with none left stays, empty) and the rows of the batch they keep.

        Every run's first and last times come from one
        :func:`sample_offsets` call. A run with both inside is kept whole
        and one wholly outside emptied, without computing its other times;
        only a run a bound falls into — at most two when runs follow each
        other in time — is searched for its cut. Exact to the µs, strict and
        non-strict bounds alike: every time compared is
        ``start + sample_offset(index, rate)``.
        """
        first, count = self.first, self.length
        # An empty run's times are never compared; take index 0 for it, so
        # that no offset it could not hold is computed.
        live = count > 0
        index = np.where(live, first, 0)
        bounds = np.array((index, index + count - live))
        heads, tails = (
            self.start_time + sample_offsets(bounds, self.sample_rate)
        ).tolist()
        counts = count.tolist()
        if all(
            lo <= head and tail <= hi or not n
            for head, tail, n in zip(heads, tails, counts)
        ):
            return self, None
        begins, ends = [0] * len(counts), [0] * len(counts)
        starts: list[int] = []  # the kept rows, as merged blocks
        lengths: list[int] = []
        for j, offset in enumerate(self.offset.tolist()):
            head, tail, n = heads[j], tails[j], counts[j]
            if not n or tail < lo or head > hi:
                continue
            begin, end = 0, n
            if head < lo or tail > hi:
                run = (
                    int(self.start_time[j]), float(self.sample_rate[j]),
                    int(first[j]), n,
                )
                if head < lo:
                    begin = _first_sample_from(lo, *run)
                if tail > hi:
                    end = max(begin, _first_sample_from(hi + 1, *run))
            begins[j], ends[j] = begin, end
            if end == begin:
                continue
            if starts and starts[-1] + lengths[-1] == offset + begin:
                lengths[-1] += end - begin
            else:
                starts.append(offset + begin)
                lengths.append(end - begin)
        begin_at = np.array(begins, dtype=np.int64)
        length = np.array(ends, dtype=np.int64) - begin_at
        runs = RecordRuns(
            self.uri, self.record_id, np.cumsum(length) - length, length,
            first + begin_at, self.start_time, self.sample_rate,
        )
        return runs, Blocks(
            np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64)
        )

    def select(self, runs: np.ndarray) -> tuple["RecordRuns", Blocks]:
        """Whole runs ``runs`` (increasing), and the rows they hold."""
        length = self.length[runs]
        return (
            self._pick(runs, length, self.first[runs]),
            Blocks.of(self.offset[runs], length),
        )

    def take_rows(self, rows: np.ndarray) -> "RecordRuns":
        """The runs of the rows ``rows`` (increasing) of the batch; a run is
        split where the rows skip one of its samples."""
        rows = np.asarray(rows, dtype=np.int64)
        run = np.searchsorted(self.offset, rows, side="right") - 1
        index = self.first[run] + (rows - self.offset[run])
        breaks = np.ones(len(rows), dtype=bool)
        breaks[1:] = (run[1:] != run[:-1]) | (index[1:] != index[:-1] + 1)
        starts = np.flatnonzero(breaks)
        lengths = np.diff(np.append(starts, len(rows)))
        return self._pick(run[starts], lengths, index[starts])

    def _pick(
        self, runs: np.ndarray, length: np.ndarray, first: np.ndarray
    ) -> "RecordRuns":
        """``runs`` of these, in order, re-cut to ``length`` samples from
        sample ``first`` of each record and laid end to end."""
        return RecordRuns(
            self.uri.take(runs),
            self.record_id[runs],
            np.cumsum(length) - length,
            length,
            first,
            self.start_time[runs],
            self.sample_rate[runs],
        )


def _first_sample_from(
    time: int, start: int, rate: float, first: int, count: int
) -> int:
    """How many of a run's ``count`` samples (record indices ``first``
    onwards, sampled at ``rate`` Hz from ``start``) are timed before ``time``.

    An estimate from the step, then corrected one sample at a time against
    the exact times, ``start + sample_offset(index, rate)``, so it is exact
    whatever the estimate's rounding.
    """
    step = 1_000_000 / rate
    index = min(max(first, math.ceil((time - start) / step - 0.5)), first + count)
    while index > first and start + sample_offset(index - 1, rate) >= time:
        index -= 1
    while index < first + count and start + sample_offset(index, rate) < time:
        index += 1
    return index - first


_RUN_KINDS = {
    "uri": DataType.STRING,
    "record_id": DataType.INT64,
    "sample_time": DataType.TIMESTAMP,
}


class RunColumn(Column):
    """A column of a run-encoded batch — ``uri``, ``record_id`` or
    ``sample_time`` — derived from the batch's :class:`RecordRuns`.

    Reading :attr:`values` (or anything built on it) materializes the rows
    through :meth:`RecordRuns.materialize` every time and keeps nothing, so a
    run-encoded batch in a cache never grows. Batch operations work on
    :attr:`runs` instead: filtering and slicing a batch split runs, a union
    concatenates them, a hash join on run-constant keys matches runs.
    """

    __slots__ = ("runs", "kind")

    def __init__(self, runs: RecordRuns, kind: str) -> None:
        # Column.__init__ would store values; these are derived.
        self.runs = runs
        self.kind = kind
        self.dtype = _RUN_KINDS[kind]
        self.dictionary = runs.uri.dictionary if kind == "uri" else None

    @property
    def values(self) -> np.ndarray:  # type: ignore[override]
        return self.materialize().values

    def __len__(self) -> int:
        return self.runs.num_rows

    @property
    def run_constant(self) -> bool:
        """Whether all rows of a run share one value (not ``sample_time``)."""
        return self.kind != "sample_time"

    def run_values(self) -> Column:
        """One value per run, for a run-constant kind."""
        if self.kind == "uri":
            return self.runs.uri
        if self.kind == "record_id":
            return Column(DataType.INT64, self.runs.record_id)
        raise TypeError_(f"{self.kind} is not constant over a run")

    def materialize(self, rows: Optional[np.ndarray] = None) -> Column:
        return self.runs.materialize(self.kind, rows)

    def take(self, indices: np.ndarray) -> Column:
        return self.materialize(indices)

    def nbytes(self) -> int:
        return self.runs.nbytes()


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
