"""Internal helpers turning extracted rows into column batches."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..db.column import Column, RecordRuns, RunColumn, StringDictionary
from ..db.table import ColumnBatch, concat_batches
from ..db.types import DataType
from .formats import FileMetaRow, MountedFile, RecordColumns


def _string_column(values: Sequence[str]) -> Column:
    dictionary = StringDictionary()
    codes = dictionary.encode(values)
    return Column(DataType.STRING, codes, dictionary)


def file_rows_batch(rows: Sequence[FileMetaRow]) -> ColumnBatch:
    return ColumnBatch(
        [
            "uri", "network", "station", "location", "channel",
            "start_time", "end_time", "nrecords", "nsamples", "size_bytes",
        ],
        [
            _string_column([r.uri for r in rows]),
            _string_column([r.network for r in rows]),
            _string_column([r.station for r in rows]),
            _string_column([r.location for r in rows]),
            _string_column([r.channel for r in rows]),
            Column(DataType.TIMESTAMP,
                   np.asarray([r.start_time for r in rows], dtype=np.int64)),
            Column(DataType.TIMESTAMP,
                   np.asarray([r.end_time for r in rows], dtype=np.int64)),
            Column(DataType.INT64,
                   np.asarray([r.nrecords for r in rows], dtype=np.int64)),
            Column(DataType.INT64,
                   np.asarray([r.nsamples for r in rows], dtype=np.int64)),
            Column(DataType.INT64,
                   np.asarray([r.size_bytes for r in rows], dtype=np.int64)),
        ],
    )


def record_rows_batch(
    uris: Sequence[str], parts: Sequence[RecordColumns]
) -> ColumnBatch:
    """``R`` from per-file column sets, ``parts[i]`` describing ``uris[i]``:
    one dictionary code per file, repeated over its records, and a
    ``record_id`` counting from zero within each file."""
    counts = np.fromiter(map(len, parts), np.int64, len(parts))
    dictionary = StringDictionary()
    codes = np.repeat(dictionary.encode(uris), counts)
    first_row = np.repeat(np.cumsum(counts) - counts, counts)

    def stacked(name: str, dtype: type) -> np.ndarray:
        arrays = [getattr(part, name) for part in parts]
        return np.concatenate(arrays) if arrays else np.empty(0, dtype)

    return ColumnBatch(
        ["uri", "record_id", "start_time", "end_time", "sample_rate",
         "nsamples", "byte_offset", "byte_length"],
        [
            Column(DataType.STRING, codes, dictionary),
            Column(DataType.INT64, np.arange(len(codes)) - first_row),
            Column(DataType.TIMESTAMP, stacked("start_time", np.int64)),
            Column(DataType.TIMESTAMP, stacked("end_time", np.int64)),
            Column(DataType.FLOAT64, stacked("sample_rate", np.float64)),
            Column(DataType.INT64, stacked("nsamples", np.int64)),
            Column(DataType.INT64, stacked("byte_offset", np.int64)),
            Column(DataType.INT64, stacked("byte_length", np.int64)),
        ],
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
