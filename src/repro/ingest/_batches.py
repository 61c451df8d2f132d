"""Internal helpers turning extracted metadata and mounts into column
batches."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..db.column import Column, RecordRuns, RunColumn, StringDictionary
from ..db.table import ColumnBatch, concat_batches
from ..db.types import DataType
from ..mseed.volume import FILE_COLUMNS, RECORD_COLUMNS, MetadataBlock
from .formats import MountedFile


def _string_column(values: Sequence[str]) -> Column:
    dictionary = StringDictionary()
    codes = dictionary.encode(values)
    return Column(DataType.STRING, codes, dictionary)


def metadata_batches(block: MetadataBlock) -> tuple[ColumnBatch, ColumnBatch]:
    """``F`` and ``R`` from a block's columns. ``F.uri`` and ``R.uri`` have
    a dictionary each; ``R.uri`` repeats each file's code over its records,
    and ``R.record_id`` counts from zero within each file."""
    files, records = block.files, block.records
    counts = files["nrecords"]
    dictionary = StringDictionary()
    codes = np.repeat(dictionary.encode(files["uri"]), counts)
    first_row = np.repeat(np.cumsum(counts) - counts, counts)
    file_batch = ColumnBatch(
        list(FILE_COLUMNS),
        [_string_column(files[name]) for name in FILE_COLUMNS[:5]]
        + [Column(dtype, files[name]) for name, dtype in _FILE_NUMBERS],
    )
    record_batch = ColumnBatch(
        ["uri", "record_id", *RECORD_COLUMNS],
        [
            Column(DataType.STRING, codes, dictionary),
            Column(DataType.INT64, np.arange(len(codes)) - first_row),
        ]
        + [Column(dtype, records[name]) for name, dtype in _RECORD_TYPES],
    )
    return file_batch, record_batch


_FILE_NUMBERS = tuple(
    zip(FILE_COLUMNS[5:], [DataType.TIMESTAMP] * 2 + [DataType.INT64] * 3)
)
_RECORD_TYPES = tuple(
    zip(
        RECORD_COLUMNS,
        [DataType.TIMESTAMP] * 2 + [DataType.FLOAT64] + [DataType.INT64] * 3,
    )
)


_D_COLUMNS = ("uri", "record_id", "sample_time", "sample_value")


def run_encoded_mount(
    uri: str, sample_value: np.ndarray, runs: RecordRuns
) -> MountedFile:
    """A file whose records carry a start time and a rate: ``sample_value``
    plus ``runs``, one per decoded record; nothing else is stored."""
    columns: list[Column] = [RunColumn(runs, name) for name in _D_COLUMNS[:3]]
    columns.append(Column(DataType.FLOAT64, sample_value))
    return MountedFile(uri, ColumnBatch(_D_COLUMNS, columns), len(runs))


def explicit_mount(
    uri: str,
    record_id: np.ndarray,
    sample_time: np.ndarray,
    sample_value: np.ndarray,
    records: int,
) -> MountedFile:
    """A file whose rows carry their own times: four materialized columns."""
    return MountedFile(
        uri,
        ColumnBatch(
            _D_COLUMNS,
            [
                Column.constant(DataType.STRING, uri, len(sample_value)),
                Column(DataType.INT64, record_id),
                Column(DataType.TIMESTAMP, sample_time),
                Column(DataType.FLOAT64, sample_value),
            ],
        ),
        records,
    )


def mounted_files_batch(mounted: Sequence[MountedFile]) -> ColumnBatch:
    """Mounted files stacked into one materialized D-layout batch (Ei's
    bulk load path; with no files, the empty D batch)."""
    if not mounted:
        return ColumnBatch.empty_like(
            _D_COLUMNS,
            [DataType.STRING, DataType.INT64, DataType.TIMESTAMP,
             DataType.FLOAT64],
        )
    stacked = concat_batches([part.batch for part in mounted])
    return ColumnBatch(
        stacked.names, [column.materialize() for column in stacked.columns]
    )
