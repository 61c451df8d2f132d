"""Column-store tables and the batch type exchanged by operators.

A :class:`ColumnBatch` is a named collection of equal-length columns — the
unit of data flow in the operator-at-a-time execution model (each physical
operator materializes its full result, MonetDB style). A :class:`Table` is a
ColumnBatch with a schema, held by the catalog.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Optional

import numpy as np

from .column import (
    Blocks,
    Column,
    RecordRuns,
    RowSelection,
    RunColumn,
    concat_columns,
)
from .errors import ExecutionError
from .schema import TableSchema
from .types import DataType


class ColumnBatch:
    """Equal-length named columns; the value every operator produces."""

    __slots__ = ("names", "columns")

    def __init__(self, names: Sequence[str], columns: Sequence[Column]) -> None:
        if len(names) != len(columns):
            raise ExecutionError("names and columns length mismatch")
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged batch: column lengths {sorted(lengths)}")
        self.names = list(names)
        self.columns = list(columns)

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str) -> Column:
        lowered = name.lower()
        for cname, col in zip(self.names, self.columns):
            if cname.lower() == lowered:
                return col
        raise ExecutionError(f"batch has no column {name!r}; has {self.names}")

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        return ColumnBatch(self.names, [c.take(indices) for c in self.columns])

    def filter(self, mask: np.ndarray) -> "ColumnBatch":
        return self.keep(mask)

    def slice(self, start: int, stop: int) -> "ColumnBatch":
        kept = range(self.num_rows)[start:stop]
        return self.keep(
            Blocks(np.array([kept.start]), np.array([len(kept)]))
        )

    def keep(
        self, rows: RowSelection, cut: Optional[dict[int, RecordRuns]] = None
    ) -> "ColumnBatch":
        """The rows ``rows`` selects — all of them, blocks, or a boolean
        mask — in order. Run-encoded columns stay run-encoded, and columns
        sharing runs share the cut runs: ``cut`` maps runs (by ``id``) to
        what they become when the caller already knows."""
        if rows is None:
            return self
        cut = {} if cut is None else cut
        columns: list[Column] = []
        for column in self.columns:
            if isinstance(column, RunColumn):
                runs = cut.get(id(column.runs))
                if runs is None:
                    indices = (
                        rows.rows() if isinstance(rows, Blocks)
                        else np.flatnonzero(rows)
                    )
                    runs = cut[id(column.runs)] = column.runs.take_rows(indices)
                columns.append(RunColumn(runs, column.kind))
            elif isinstance(rows, Blocks):
                columns.append(Column(
                    column.dtype, rows.gather(column.values), column.dictionary
                ))
            else:
                columns.append(column.filter(rows))
        return ColumnBatch(self.names, columns)

    def within(self, name: str, lo: int, hi: int) -> "ColumnBatch":
        """The rows whose ``name`` lies in the closed ``[lo, hi]``, in order.
        A run-encoded time column is cut run by run, not masked row by row."""
        column = self.column(name)
        if isinstance(column, RunColumn) and not column.run_constant:
            runs, rows = column.runs.within(lo, hi)
            return self.keep(rows, {id(column.runs): runs})
        values = column.values
        return self.filter((values >= lo) & (values <= hi))

    def select(self, names: Sequence[str]) -> "ColumnBatch":
        return ColumnBatch(list(names), [self.column(n) for n in names])

    def rows(self) -> list[tuple[Any, ...]]:
        """Materialize as Python row tuples (for results and tests)."""
        pylists = [col.to_pylist() for col in self.columns]
        return list(zip(*pylists)) if pylists else []

    def nbytes(self) -> int:
        """Bytes held: columns sharing runs count the runs once."""
        counted: set[int] = set()
        total = 0
        for col in self.columns:
            if isinstance(col, RunColumn):
                if id(col.runs) in counted:
                    continue
                counted.add(id(col.runs))
            total += col.nbytes()
        return total

    @classmethod
    def empty_like(cls, names: Sequence[str], dtypes: Sequence[DataType]) -> "ColumnBatch":
        return cls(list(names), [Column.empty(dt) for dt in dtypes])


def concat_batches(batches: Sequence[ColumnBatch]) -> ColumnBatch:
    """Vertically concatenate batches with identical column layout.

    A column run-encoded in every batch stays so: the batches' runs are
    concatenated once for all the columns sharing them. A column that some
    batch holds materialized is materialized in all of them first.
    """
    if not batches:
        raise ExecutionError("concat_batches requires at least one batch")
    names = batches[0].names
    for batch in batches[1:]:
        if [n.lower() for n in batch.names] != [n.lower() for n in names]:
            raise ExecutionError(
                f"batch layout mismatch: {batch.names} vs {names}"
            )
    if len(batches) == 1:
        return batches[0]
    merged: dict[tuple[int, ...], RecordRuns] = {}
    columns: list[Column] = []
    for i in range(len(names)):
        parts = [b.columns[i] for b in batches]
        if all(
            isinstance(p, RunColumn) and p.kind == parts[0].kind for p in parts
        ):
            key = tuple(id(p.runs) for p in parts)
            if key not in merged:
                merged[key] = RecordRuns.concat([p.runs for p in parts])
            columns.append(RunColumn(merged[key], parts[0].kind))
        else:
            columns.append(concat_columns([p.materialize() for p in parts]))
    return ColumnBatch(names, columns)


class Table:
    """A schema-bearing column store table registered in the catalog."""

    def __init__(self, schema: TableSchema, batch: ColumnBatch | None = None) -> None:
        self.schema = schema
        if batch is None:
            batch = ColumnBatch.empty_like(
                schema.column_names, [c.dtype for c in schema.columns]
            )
        self._check_layout(batch)
        self.batch = batch

    def _check_layout(self, batch: ColumnBatch) -> None:
        expected = [c.name.lower() for c in self.schema.columns]
        actual = [n.lower() for n in batch.names]
        if expected != actual:
            raise ExecutionError(
                f"table {self.schema.name!r}: batch columns {actual} "
                f"do not match schema {expected}"
            )
        for col_def, col in zip(self.schema.columns, batch.columns):
            if col.dtype != col_def.dtype:
                raise ExecutionError(
                    f"table {self.schema.name!r} column {col_def.name!r}: "
                    f"expected {col_def.dtype.value}, got {col.dtype.value}"
                )

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        return self.batch.num_rows

    def append(self, batch: ColumnBatch) -> None:
        """Append rows (used by ingestion); columns must match the schema."""
        self._check_layout(batch)
        if self.batch.num_rows == 0:
            self.batch = batch
        else:
            self.batch = concat_batches([self.batch, batch])

    def replace(self, batch: ColumnBatch) -> None:
        self._check_layout(batch)
        self.batch = batch

    def nbytes(self) -> int:
        return self.batch.nbytes()
