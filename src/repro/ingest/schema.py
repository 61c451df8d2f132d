"""The paper's three-table seismic schema and repository bindings.

§3/§4: one metadata table ``F`` for file-level metadata, one metadata table
``R`` for record-level metadata, and one actual-data table ``D`` holding
(sample_time, sample_value) tuples from all files and records. Foreign keys
follow the FROM clause of Query 1: ``R.uri → F.uri`` and
``D.(uri, record_id) → R``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.database import Database
from ..db.schema import ColumnDef, ForeignKey, TableKind, TableSchema
from ..db.types import DataType
from ..mseed.repository import Repository

FILE_TABLE = "F"
RECORD_TABLE = "R"
ACTUAL_TABLE = "D"
# The actual table's source-file handle (what rule (1) unions over) and its
# sample timestamp (what time windows bound); extraction writes exactly these.
URI_COLUMN = "uri"
TIME_COLUMN = "sample_time"


def file_table_schema() -> TableSchema:
    return TableSchema(
        name=FILE_TABLE,
        columns=[
            ColumnDef("uri", DataType.STRING),
            ColumnDef("network", DataType.STRING),
            ColumnDef("station", DataType.STRING),
            ColumnDef("location", DataType.STRING),
            ColumnDef("channel", DataType.STRING),
            ColumnDef("start_time", DataType.TIMESTAMP),
            ColumnDef("end_time", DataType.TIMESTAMP),
            ColumnDef("nrecords", DataType.INT64),
            ColumnDef("nsamples", DataType.INT64),
            ColumnDef("size_bytes", DataType.INT64),
        ],
        kind=TableKind.METADATA,
        primary_key=("uri",),
    )


def record_table_schema() -> TableSchema:
    return TableSchema(
        name=RECORD_TABLE,
        columns=[
            ColumnDef("uri", DataType.STRING),
            ColumnDef("record_id", DataType.INT64),
            ColumnDef("start_time", DataType.TIMESTAMP),
            ColumnDef("end_time", DataType.TIMESTAMP),
            ColumnDef("sample_rate", DataType.FLOAT64),
            ColumnDef("nsamples", DataType.INT64),
            # The record byte map: where each record lives inside its file.
            # -1/-1 means the format cannot address records by byte range.
            ColumnDef("byte_offset", DataType.INT64),
            ColumnDef("byte_length", DataType.INT64),
        ],
        kind=TableKind.METADATA,
        primary_key=("uri", "record_id"),
        foreign_keys=[ForeignKey(("uri",), FILE_TABLE, ("uri",))],
    )


def actual_table_schema() -> TableSchema:
    return TableSchema(
        name=ACTUAL_TABLE,
        columns=[
            ColumnDef(URI_COLUMN, DataType.STRING),
            ColumnDef("record_id", DataType.INT64),
            ColumnDef(TIME_COLUMN, DataType.TIMESTAMP),
            ColumnDef("sample_value", DataType.FLOAT64),
        ],
        kind=TableKind.ACTUAL,
        # Ei builds this primary key up-front, like the paper's MonetDB
        # setup; it is the dominant share of the "+keys" storage in Table 1
        # and of the index build time.
        primary_key=("uri", "record_id", "sample_time"),
        foreign_keys=[
            ForeignKey(("uri",), FILE_TABLE, ("uri",)),
            ForeignKey(("uri", "record_id"), RECORD_TABLE, ("uri", "record_id")),
        ],
    )


def seismic_schema() -> list[TableSchema]:
    return [file_table_schema(), record_table_schema(), actual_table_schema()]


def ensure_schema(db: Database) -> None:
    """Create F, R, D if missing (idempotent)."""
    for schema in seismic_schema():
        if not db.catalog.has_table(schema.name):
            db.create_table(schema)


@dataclass
class RepositoryBinding:
    """Connects the actual table ``D`` to the file repository feeding it.

    With ``prune_by_time`` the breakpoint drops files of interest whose
    metadata time span is disjoint from the query's sample-time interval,
    since such files cannot contribute rows. It defaults to **off** because
    the paper's ALi does not exploit metadata this way (it is our
    implementation of §5's "extending metadata" direction) — the
    reproduction benchmarks must match the paper's behaviour, and
    `benchmarks/bench_time_pruning.py` measures the extension explicitly.
    """

    repository: Repository
    prune_by_time: bool = False
    registry: "FormatRegistry | None" = None

    def __post_init__(self) -> None:
        if self.registry is None:
            from .formats import default_registry

            self.registry = default_registry()
