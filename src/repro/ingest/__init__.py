"""`repro.ingest` — getting repository data into the database.

Two ingestion strategies from the paper's evaluation:

* **Ei** (:func:`eager_ingest`) — the baseline: parse and decompress every
  file up-front, materialize the actual-data table with explicit timestamps,
  and build primary/foreign-key indexes.
* **ALi setup** (:func:`lazy_ingest_metadata`) — load only metadata (file and
  record headers); actual data stays in the repository until a query mounts
  it.

File formats are pluggable through :class:`FormatRegistry` (the paper's
"generalization" challenge): xSEED ships by default and a CSV time-series
format demonstrates a second scientific format.
"""

from .csv_format import CsvExtractor, write_csv_timeseries
from .eager import EagerLoadReport, eager_ingest
from .formats import (
    ExtractedMetadata,
    FileMetaRow,
    FormatExtractor,
    FormatRegistry,
    MountedFile,
    RecordColumns,
    default_registry,
)
from .lazy import LazyLoadReport, lazy_ingest_metadata
from .schema import (
    ACTUAL_TABLE,
    FILE_TABLE,
    RECORD_TABLE,
    RepositoryBinding,
    ensure_schema,
    seismic_schema,
)
from .xseed_format import XSeedExtractor

__all__ = [
    "CsvExtractor",
    "write_csv_timeseries",
    "EagerLoadReport",
    "eager_ingest",
    "FormatExtractor",
    "FormatRegistry",
    "FileMetaRow",
    "RecordColumns",
    "ExtractedMetadata",
    "MountedFile",
    "default_registry",
    "LazyLoadReport",
    "lazy_ingest_metadata",
    "ensure_schema",
    "seismic_schema",
    "RepositoryBinding",
    "FILE_TABLE",
    "RECORD_TABLE",
    "ACTUAL_TABLE",
    "XSeedExtractor",
]
