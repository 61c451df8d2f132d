"""The system catalog: tables, their kinds, and key indexes."""

from __future__ import annotations

from .errors import CatalogError
from .index import HashIndex
from .schema import TableKind, TableSchema
from .table import Table


class Catalog:
    """Registry of tables and their indexes.

    The catalog also answers the planner's central question for two-stage
    execution: which tables are metadata (``M``) and which hold actual data
    (``A``).
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._indexes: dict[tuple[str, tuple[str, ...]], HashIndex] = {}
        # Bumped whenever a table is created, registered or dropped: what a
        # plan compiled against this catalog can go stale on.
        self.generation = 0

    # -- tables --------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        self.generation += 1
        return table

    def register_table(self, table: Table) -> None:
        key = table.schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.schema.name!r} already exists")
        self._tables[key] = table
        self.generation += 1

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"no table {name!r}")
        del self._tables[key]
        self.generation += 1
        self._indexes = {
            ikey: idx for ikey, idx in self._indexes.items() if ikey[0] != key
        }

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def tables(self) -> list[Table]:
        return list(self._tables.values())

    # -- metadata vs actual (the paper's M and A) -----------------------------

    def is_metadata_table(self, name: str) -> bool:
        return self.table(name).schema.kind.counts_as_metadata

    def metadata_tables(self) -> list[Table]:
        return [t for t in self.tables() if t.schema.kind.counts_as_metadata]

    def actual_tables(self) -> list[Table]:
        return [t for t in self.tables() if t.schema.kind is TableKind.ACTUAL]

    # -- indexes ---------------------------------------------------------------

    def register_index(self, table: str, columns: tuple[str, ...], index: HashIndex) -> None:
        self._indexes[(table.lower(), tuple(c.lower() for c in columns))] = index

    def index_for(self, table: str, columns: tuple[str, ...]) -> HashIndex | None:
        return self._indexes.get(
            (table.lower(), tuple(c.lower() for c in columns))
        )

    def indexes(self) -> dict[tuple[str, tuple[str, ...]], HashIndex]:
        return dict(self._indexes)

    def index_nbytes(self) -> int:
        return sum(idx.nbytes() for idx in self._indexes.values())

    def data_nbytes(self) -> int:
        return sum(t.nbytes() for t in self.tables())
