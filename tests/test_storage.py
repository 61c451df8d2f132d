"""Tests for on-disk persistence of databases."""

import pytest

from repro.db import ColumnDef, Database, DataType, TableKind, TableSchema
from repro.db.errors import StorageError
from repro.db.storage import load_catalog, save_catalog


@pytest.fixture()
def db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                ColumnDef("k", DataType.INT64),
                ColumnDef("s", DataType.STRING),
                ColumnDef("ts", DataType.TIMESTAMP),
            ],
            kind=TableKind.ACTUAL,
            primary_key=("k",),
        )
    )
    db.insert_rows("t", [(1, "x", "2010-01-01"), (2, "y", "2010-01-02")])
    db.build_key_indexes("t")
    return db


class TestRoundtrip:
    def test_data_survives(self, db, tmp_path):
        save_catalog(db.catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.table("t").batch.rows() == db.catalog.table("t").batch.rows()

    def test_schema_survives(self, db, tmp_path):
        save_catalog(db.catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        schema = loaded.table("t").schema
        assert schema.kind is TableKind.ACTUAL
        assert schema.primary_key == ("k",)

    def test_indexes_rebuilt(self, db, tmp_path):
        save_catalog(db.catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        index = loaded.index_for("t", ("k",))
        assert index is not None
        assert list(index.lookup(2)) == [1]

    def test_queries_after_reload(self, db, tmp_path):
        save_catalog(db.catalog, tmp_path)
        reloaded = Database()
        reloaded.catalog = load_catalog(tmp_path)
        rows = reloaded.execute("SELECT s FROM t ORDER BY k").rows()
        assert rows == [("x",), ("y",)]

    def test_empty_table_roundtrip(self, tmp_path):
        db = Database()
        db.create_table(TableSchema("e", [ColumnDef("v", DataType.FLOAT64)]))
        save_catalog(db.catalog, tmp_path)
        loaded = load_catalog(tmp_path)
        assert loaded.table("e").num_rows == 0


class TestAccountingAndErrors:
    def test_save_returns_bytes(self, db, tmp_path):
        written = save_catalog(db.catalog, tmp_path)
        assert written > 0
        on_disk = sum(f.stat().st_size for f in tmp_path.rglob("*") if f.is_file())
        assert on_disk >= written

    def test_missing_catalog_raises(self, tmp_path):
        with pytest.raises(StorageError):
            load_catalog(tmp_path / "nowhere")

    def test_missing_column_file_raises(self, db, tmp_path):
        save_catalog(db.catalog, tmp_path)
        (tmp_path / "t.k.bin").unlink()
        with pytest.raises(StorageError):
            load_catalog(tmp_path)

    def test_missing_dictionary_raises(self, db, tmp_path):
        save_catalog(db.catalog, tmp_path)
        (tmp_path / "t.s.dict.json").unlink()
        with pytest.raises(StorageError):
            load_catalog(tmp_path)


class TestDatabaseSaveOpen:
    def test_save_open_roundtrip(self, db, tmp_path):
        """The Database-level convenience wrappers around the storage layer."""
        from repro.db import Database

        target = tmp_path / "dbdir"
        source = Database()
        source.catalog = db.catalog
        written = source.save(str(target))
        assert written > 0
        reopened = Database.open(str(target))
        assert reopened.execute("SELECT s FROM t ORDER BY k").rows() == [
            ("x",), ("y",),
        ]

    def test_open_starts_cold(self, db, tmp_path):
        from repro.db import Database, DiskModel

        target = tmp_path / "dbdir"
        source = Database()
        source.catalog = db.catalog
        source.save(str(target))
        reopened = Database.open(str(target), DiskModel(seek_seconds=0.01))
        result = reopened.execute("SELECT COUNT(*) FROM t")
        assert result.io.objects_read > 0
