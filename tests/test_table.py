"""Tests for ColumnBatch and Table invariants."""

import numpy as np
import pytest

from repro.db import Column, ColumnBatch, DataType, TableKind, TableSchema
from repro.db.errors import CatalogError, ExecutionError
from repro.db.schema import ColumnDef, ForeignKey
from repro.db.table import Table, concat_batches


def make_batch(n=3):
    return ColumnBatch(
        ["a", "b"],
        [
            Column.from_pylist(DataType.INT64, list(range(n))),
            Column.from_pylist(DataType.STRING, [f"s{i}" for i in range(n)]),
        ],
    )


class TestColumnBatch:
    def test_basic_shape(self):
        batch = make_batch()
        assert batch.num_rows == 3
        assert batch.num_columns == 2

    def test_ragged_batch_rejected(self):
        with pytest.raises(ExecutionError):
            ColumnBatch(
                ["a", "b"],
                [
                    Column.from_pylist(DataType.INT64, [1]),
                    Column.from_pylist(DataType.INT64, [1, 2]),
                ],
            )

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ExecutionError):
            ColumnBatch(["a"], [])

    def test_column_lookup_case_insensitive(self):
        batch = make_batch()
        assert batch.column("A").to_pylist() == [0, 1, 2]

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            make_batch().column("zzz")

    def test_take_filter_slice(self):
        batch = make_batch(4)
        assert batch.take(np.array([3, 0])).rows() == [(3, "s3"), (0, "s0")]
        mask = np.array([True, False, False, True])
        assert batch.filter(mask).rows() == [(0, "s0"), (3, "s3")]
        assert batch.slice(1, 3).rows() == [(1, "s1"), (2, "s2")]

    def test_select_reorders(self):
        batch = make_batch(1)
        assert batch.select(["b", "a"]).rows() == [("s0", 0)]

    def test_rows_empty(self):
        empty = ColumnBatch.empty_like(["x"], [DataType.INT64])
        assert empty.rows() == []


class TestConcatBatches:
    def test_concat(self):
        merged = concat_batches([make_batch(2), make_batch(1)])
        assert merged.num_rows == 3

    def test_layout_mismatch(self):
        other = ColumnBatch(["x"], [Column.from_pylist(DataType.INT64, [1])])
        with pytest.raises(ExecutionError):
            concat_batches([make_batch(1), other])

    def test_empty_list_rejected(self):
        with pytest.raises(ExecutionError):
            concat_batches([])


class TestSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [ColumnDef("a", DataType.INT64),
                              ColumnDef("A", DataType.INT64)])

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t", [ColumnDef("a", DataType.INT64)], primary_key=("b",)
            )

    def test_foreign_key_columns_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t",
                [ColumnDef("a", DataType.INT64)],
                foreign_keys=[ForeignKey(("b",), "other", ("x",))],
            )

    def test_serialization_roundtrip(self):
        schema = TableSchema(
            "t",
            [ColumnDef("a", DataType.INT64), ColumnDef("s", DataType.STRING)],
            kind=TableKind.ACTUAL,
            primary_key=("a",),
            foreign_keys=[ForeignKey(("s",), "other", ("s",))],
        )
        assert TableSchema.from_dict(schema.to_dict()) == schema

    def test_kind_metadata_classification(self):
        assert TableKind.METADATA.counts_as_metadata
        assert TableKind.DERIVED.counts_as_metadata
        assert not TableKind.ACTUAL.counts_as_metadata



class TestTable:
    def schema(self):
        return TableSchema(
            "t", [ColumnDef("a", DataType.INT64), ColumnDef("b", DataType.STRING)]
        )

    def test_starts_empty(self):
        table = Table(self.schema())
        assert table.num_rows == 0

    def test_append_layout_mismatch(self):
        table = Table(self.schema())
        wrong = ColumnBatch(["a"], [Column.from_pylist(DataType.INT64, [1])])
        with pytest.raises(ExecutionError):
            table.append(wrong)

    def test_append_dtype_mismatch(self):
        table = Table(self.schema())
        wrong = ColumnBatch(
            ["a", "b"],
            [
                Column.from_pylist(DataType.FLOAT64, [1.0]),
                Column.from_pylist(DataType.STRING, ["x"]),
            ],
        )
        with pytest.raises(ExecutionError):
            table.append(wrong)

    def test_replace(self):
        table = Table(self.schema())
        table.replace(make_batch(4))
        assert table.num_rows == 4
