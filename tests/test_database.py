"""End-to-end tests for the Database facade and buffer accounting."""

import pytest

from repro.db import (
    Catalog,
    ColumnDef,
    Database,
    DataType,
    DiskModel,
    TableKind,
    TableSchema,
)
from repro.db.errors import CatalogError


@pytest.fixture()
def db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                ColumnDef("k", DataType.INT64),
                ColumnDef("s", DataType.STRING),
                ColumnDef("v", DataType.FLOAT64),
            ],
        )
    )
    db.insert_rows("t", [(1, "a", 1.5), (2, "b", 2.5), (3, "a", 3.5)])
    return db


class TestQueryResult:
    def test_rows_and_columns(self, db):
        result = db.execute("SELECT k, s FROM t ORDER BY k")
        assert result.rows() == [(1, "a"), (2, "b"), (3, "a")]
        assert result.column("s") == ["a", "b", "a"]
        assert result.num_rows == 3

    def test_scalar(self, db):
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_scalar_rejects_non_scalar(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT k FROM t").scalar()

    def test_pretty_renders(self, db):
        text = db.execute("SELECT k, v FROM t ORDER BY k").pretty()
        assert "k" in text and "1" in text

    def test_pretty_truncates(self, db):
        text = db.execute("SELECT k FROM t").pretty(limit=1)
        assert "more rows" in text

    def test_total_seconds_includes_io(self, db):
        result = db.execute("SELECT k FROM t")
        assert result.total_seconds >= result.elapsed_cpu


class TestBufferAccounting:
    def test_cold_then_hot(self):
        db = Database(DiskModel(seek_seconds=0.01))
        db.create_table(TableSchema("t", [ColumnDef("k", DataType.INT64)]))
        db.insert_rows("t", [(i,) for i in range(100)])
        db.make_cold()
        cold = db.execute("SELECT COUNT(*) FROM t")
        assert cold.io.objects_read == 1
        assert cold.io.simulated_seconds > 0
        hot = db.execute("SELECT COUNT(*) FROM t")
        assert hot.io.objects_read == 0
        assert hot.io.simulated_seconds == 0

    def test_warm_all(self):
        db = Database()
        db.create_table(TableSchema("t", [ColumnDef("k", DataType.INT64)]))
        db.insert_rows("t", [(1,)])
        db.warm_all()
        result = db.execute("SELECT k FROM t")
        assert result.io.objects_read == 0

    def test_pruning_reduces_io(self):
        db = Database()
        db.create_table(
            TableSchema(
                "wide",
                [ColumnDef(f"c{i}", DataType.INT64) for i in range(6)],
            )
        )
        db.insert_rows("wide", [tuple(range(6))])
        db.make_cold()
        result = db.execute("SELECT c0 FROM wide")
        assert result.io.objects_read == 1  # only one column touched


class TestCatalog:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.create_table(TableSchema("t", [ColumnDef("x", DataType.INT64)]))

    def test_metadata_actual_partition(self):
        catalog = Catalog()
        catalog.create_table(
            TableSchema("m", [ColumnDef("x", DataType.INT64)],
                        kind=TableKind.METADATA)
        )
        catalog.create_table(
            TableSchema("a", [ColumnDef("x", DataType.INT64)],
                        kind=TableKind.ACTUAL)
        )
        assert catalog.is_metadata_table("m")
        assert not catalog.is_metadata_table("a")

    def test_build_key_indexes_idempotent(self, db):
        db.create_table(
            TableSchema("pk2", [ColumnDef("k", DataType.INT64)],
                        primary_key=("k",))
        )
        db.insert_rows("pk2", [(1,)])
        db.build_key_indexes("pk2")
        before = db.index_nbytes()
        db.build_key_indexes("pk2")
        assert db.index_nbytes() == before


class TestExplain:
    def test_explain_mentions_operators(self, db):
        text = db.explain("SELECT s, COUNT(*) FROM t GROUP BY s")
        assert "Aggregate" in text and "Scan(t)" in text

    def test_execute_complex_query(self, db):
        rows = db.execute(
            "SELECT s, COUNT(*) AS n, AVG(v) FROM t WHERE k < 3 "
            "GROUP BY s ORDER BY s"
        ).rows()
        assert rows == [("a", 1, 1.5), ("b", 1, 2.5)]

    def test_expression_projection(self, db):
        rows = db.execute("SELECT k * 2 + 1 AS kk FROM t ORDER BY k").rows()
        assert rows == [(3,), (5,), (7,)]
