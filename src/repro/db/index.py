"""Key indexes over one or more table columns.

Eager ingestion (Ei) builds primary- and foreign-key indexes up-front, as the
paper does for MonetDB ("Ei creates primary and foreign key indexes before
querying starts", §4). The index is a sorted composite structure: the key
columns' physical vectors lexsorted together with the row ids, probed by
iteratively narrowing ``searchsorted`` ranges one key level at a time. Build
cost is a few vectorized sorts — intentionally proportional to table size,
which is what makes index construction the dominant share of Ei's up-front
cost (the paper observed it taking four times longer than loading).

The physical planner uses indexes for index joins, and the harness accounts
their bytes as the "+keys" column of Table 1.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .column import Column, StringDictionary
from .types import DataType


class HashIndex:
    """A sorted key index from key tuples to row-id ranges.

    (Named for its role — MonetDB's key indexes are hash-based — though the
    physical structure here is a sorted composite, which probes in
    ``O(k log n)`` per lookup and builds fully vectorized.)
    """

    def __init__(self, table_name: str, column_names: tuple[str, ...]) -> None:
        self.table_name = table_name
        self.column_names = column_names
        self._rowids = np.empty(0, dtype=np.int64)
        self._sorted_keys: list[np.ndarray] = []
        self._dictionaries: list[StringDictionary | None] = []
        self._dtypes: list[DataType] = []
        self.unique = True

    @classmethod
    def build(
        cls,
        table_name: str,
        column_names: Sequence[str],
        key_columns: Sequence[Column],
    ) -> "HashIndex":
        index = cls(table_name, tuple(c.lower() for c in column_names))
        index._build(key_columns)
        return index

    def _build(self, key_columns: Sequence[Column]) -> None:
        if not key_columns:
            raise ValueError("index requires at least one key column")
        self._dictionaries = [col.dictionary for col in key_columns]
        self._dtypes = [col.dtype for col in key_columns]
        n = len(key_columns[0])
        if n == 0:
            self._sorted_keys = [
                np.empty(0, dtype=col.values.dtype) for col in key_columns
            ]
            return
        # Sorting on the physical vectors (dictionary codes for strings) is
        # equality-consistent, which is all an exact-match index needs.
        arrays = [col.values for col in key_columns]
        order = np.lexsort(arrays[::-1])
        self._rowids = order.astype(np.int64)
        self._sorted_keys = [np.ascontiguousarray(arr[order]) for arr in arrays]
        duplicate = np.zeros(n - 1, dtype=bool) if n > 1 else np.zeros(0, bool)
        if n > 1:
            duplicate[:] = True
            for arr in self._sorted_keys:
                duplicate &= arr[1:] == arr[:-1]
        self.unique = not bool(duplicate.any())

    # -- probing ---------------------------------------------------------------

    def _encode_component(self, level: int, value: object) -> object | None:
        """Translate a logical key component to its physical representation.

        Returns None when the value cannot exist in the column (e.g. a
        string absent from the dictionary) — an automatic miss.
        """
        value = _normalize_scalar(value)
        dictionary = self._dictionaries[level]
        if dictionary is not None:
            if not isinstance(value, str):
                return None
            return dictionary.lookup(value)
        if self._dtypes[level] is DataType.FLOAT64:
            return float(value)  # type: ignore[arg-type]
        if isinstance(value, bool):
            return value
        try:
            return int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None

    def lookup(self, key: object) -> np.ndarray:
        """Row ids whose key columns equal ``key`` (empty when absent)."""
        components = key if isinstance(key, tuple) else (key,)
        probe = [np.array([c], dtype=object) for c in components]
        return self.lookup_many(probe)[1]

    def lookup_many(
        self, probe_keys: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Join probe keys, one array of logical values per key level,
        against the index.

        Returns ``(probe_idx, build_rowids)`` — parallel arrays pairing each
        probe position with every matching indexed row, probe order first.
        Every probe row is narrowed one key level at a time, all of them at
        once: ``np.searchsorted`` over the first level, which is sorted
        whole, and a vectorized bisection inside each probe's range below
        it, which is sorted within that range.
        """
        empty = np.empty(0, dtype=np.int64)
        if len(probe_keys) != len(self._sorted_keys):
            return empty, empty
        rows = len(probe_keys[0])
        lo = np.zeros(rows, dtype=np.int64)
        hi = np.full(rows, len(self._rowids), dtype=np.int64)
        for level, values in enumerate(probe_keys):
            encoded, known = self._encode_level(level, values)
            keys = self._sorted_keys[level]
            lo, hi = (
                _searchsorted(keys, lo, hi, encoded, right=False),
                _searchsorted(keys, lo, hi, encoded, right=True),
            )
            hi = np.where(known, hi, lo)  # a value the column cannot hold
        counts = hi - lo
        # Output j of probe i reads sorted position lo[i] + (j - first[i]).
        first = np.cumsum(counts) - counts
        positions = np.arange(counts.sum()) + np.repeat(lo - first, counts)
        return np.repeat(np.arange(rows), counts), self._rowids[positions]

    def _encode_level(
        self, level: int, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``values`` as key level ``level`` stores them, and which of them
        it can hold at all: numbers cast at once, anything else one value at
        a time (:meth:`_encode_component`)."""
        keys = self._sorted_keys[level]
        if self._dictionaries[level] is None and keys.dtype.kind in "iuf" and (
            values.dtype.kind in "iub" or values.dtype.kind == keys.dtype.kind
        ):
            return values.astype(keys.dtype), np.ones(len(values), dtype=bool)
        physical = [self._encode_component(level, v) for v in values.tolist()]
        known = np.array([v is not None for v in physical], dtype=bool)
        encoded = [0 if v is None else v for v in physical]
        return np.array(encoded, dtype=keys.dtype), known

    def nbytes(self) -> int:
        """Storage footprint: row ids plus the sorted key vectors.

        This is what Table 1's "+keys" column reports.
        """
        total = int(self._rowids.nbytes)
        for arr in self._sorted_keys:
            total += int(arr.nbytes)
        return total


def _searchsorted(
    keys: np.ndarray, lo: np.ndarray, hi: np.ndarray, values: np.ndarray,
    right: bool,
) -> np.ndarray:
    """``lo[i] + np.searchsorted(keys[lo[i]:hi[i]], values[i], side)`` for
    every ``i`` at once, each range of ``keys`` sorted on its own: one
    ``np.searchsorted`` when every range is the whole of ``keys``, else a
    vectorized bisection, in which NaN orders last as numpy sorts it."""
    if not lo.any() and (hi == len(keys)).all():
        return np.searchsorted(keys, values, side="right" if right else "left")
    lo, hi = lo.copy(), hi.copy()
    while (active := lo < hi).any():
        mid = (lo + hi) // 2
        probe = keys[np.minimum(mid, len(keys) - 1)]
        below = probe <= values if right else probe < values
        if keys.dtype.kind == "f":
            below |= np.isnan(values) & (right | ~np.isnan(probe))
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    return lo


def _normalize_scalar(value: object) -> object:
    if isinstance(value, np.generic):
        return value.item()
    return value
