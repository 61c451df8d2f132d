"""Table schemas and the metadata/actual-data distinction.

The paper partitions the schema ``T = M ∪ A`` into metadata tables ``M`` and
actual-data tables ``A`` (§3). That classification is first-class here: it is
what the two-stage decomposition keys on. Derived-metadata tables (§5) are a
third kind that behaves like metadata for planning purposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import CatalogError
from .types import DataType


class TableKind(enum.Enum):
    """How the planner classifies a table (the paper's M vs A)."""

    METADATA = "metadata"
    ACTUAL = "actual"
    DERIVED = "derived"  # derived metadata (§5); plans like METADATA

    @property
    def counts_as_metadata(self) -> bool:
        return self in (TableKind.METADATA, TableKind.DERIVED)


@dataclass(frozen=True)
class ColumnDef:
    """One column of a table schema."""

    name: str
    dtype: DataType


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key relationship, used by Ei to build join indexes."""

    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]


@dataclass
class TableSchema:
    """The full definition of one table."""

    name: str
    columns: list[ColumnDef]
    kind: TableKind = TableKind.METADATA
    primary_key: tuple[str, ...] = ()
    foreign_keys: list[ForeignKey] = field(default_factory=list)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for col in self.columns:
            lowered = col.name.lower()
            if lowered in seen:
                raise CatalogError(
                    f"duplicate column {col.name!r} in table {self.name!r}"
                )
            seen.add(lowered)
        for key_col in self.primary_key:
            if not self.has_column(key_col):
                raise CatalogError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )
        for fkey in self.foreign_keys:
            for key_col in fkey.columns:
                if not self.has_column(key_col):
                    raise CatalogError(
                        f"foreign key column {key_col!r} not in table {self.name!r}"
                    )

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(col.name.lower() == lowered for col in self.columns)

    @property
    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    def to_dict(self) -> dict:
        """JSON-serializable form for catalog persistence."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "columns": [[c.name, c.dtype.value] for c in self.columns],
            "primary_key": list(self.primary_key),
            "foreign_keys": [
                {
                    "columns": list(fk.columns),
                    "ref_table": fk.ref_table,
                    "ref_columns": list(fk.ref_columns),
                }
                for fk in self.foreign_keys
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TableSchema":
        return cls(
            name=data["name"],
            columns=[ColumnDef(n, DataType(t)) for n, t in data["columns"]],
            kind=TableKind(data["kind"]),
            primary_key=tuple(data["primary_key"]),
            foreign_keys=[
                ForeignKey(
                    tuple(fk["columns"]), fk["ref_table"], tuple(fk["ref_columns"])
                )
                for fk in data["foreign_keys"]
            ],
        )
