"""On-disk persistence for databases.

Layout of a database directory::

    catalog.json                     # schemas, kinds, keys, index inventory
    <table>.<column>.bin             # raw little-endian numpy vector
    <table>.<column>.dict.json       # dictionary for string columns

Indexes are persisted as their definition only and rebuilt on load; the
rebuild cost is charged to the loader, mirroring how the paper charges index
construction to eager ingestion.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .catalog import Catalog
from .column import Column, StringDictionary
from .errors import StorageError
from .index import HashIndex
from .schema import TableSchema
from .table import ColumnBatch, Table
from .types import DataType

_CATALOG_FILE = "catalog.json"


def save_catalog(catalog: Catalog, directory: str | Path) -> int:
    """Write every table (and index definitions) under ``directory``.

    Returns the total bytes written (the on-disk database size).
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    total = 0
    manifest: dict = {"tables": [], "indexes": []}
    for table in catalog.tables():
        manifest["tables"].append(table.schema.to_dict())
        for col_def, column in zip(table.schema.columns, table.batch.columns):
            stem = f"{table.schema.name.lower()}.{col_def.name.lower()}"
            data_path = root / f"{stem}.bin"
            data_path.write_bytes(column.values.tobytes())
            total += data_path.stat().st_size
            if column.dictionary is not None:
                dict_path = root / f"{stem}.dict.json"
                dict_path.write_text(json.dumps(column.dictionary.entries))
                total += dict_path.stat().st_size
    for (table_name, columns) in catalog.indexes():
        manifest["indexes"].append({"table": table_name, "columns": list(columns)})
    catalog_path = root / _CATALOG_FILE
    catalog_path.write_text(json.dumps(manifest, indent=1))
    total += catalog_path.stat().st_size
    return total


def load_catalog(directory: str | Path) -> Catalog:
    """Read a database directory back into a fresh catalog."""
    root = Path(directory)
    catalog_path = root / _CATALOG_FILE
    if not catalog_path.exists():
        raise StorageError(f"no catalog at {catalog_path}")
    manifest = json.loads(catalog_path.read_text())
    catalog = Catalog()
    for table_data in manifest["tables"]:
        schema = TableSchema.from_dict(table_data)
        columns = []
        for col_def in schema.columns:
            stem = f"{schema.name.lower()}.{col_def.name.lower()}"
            data_path = root / f"{stem}.bin"
            if not data_path.exists():
                raise StorageError(f"missing column file {data_path}")
            values = np.frombuffer(
                data_path.read_bytes(), dtype=col_def.dtype.numpy_dtype
            ).copy()
            dictionary = None
            if col_def.dtype is DataType.STRING:
                dict_path = root / f"{stem}.dict.json"
                if not dict_path.exists():
                    raise StorageError(f"missing dictionary file {dict_path}")
                dictionary = StringDictionary(json.loads(dict_path.read_text()))
            columns.append(Column(col_def.dtype, values, dictionary))
        batch = ColumnBatch(schema.column_names, columns)
        catalog.register_table(Table(schema, batch))
    for index_def in manifest["indexes"]:
        table = catalog.table(index_def["table"])
        columns = tuple(index_def["columns"])
        key_columns = [table.batch.column(c) for c in columns]
        index = HashIndex.build(index_def["table"], columns, key_columns)
        catalog.register_index(index_def["table"], columns, index)
    return catalog

