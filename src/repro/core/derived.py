"""Derived metadata (§5 "Extending metadata").

"We can derive metadata as a side-effect of ALi or actual data processing,
without the explorer noticing, in order to address lack of metadata
exploitation and long exploration."

:class:`DerivedMetadataStore` hooks into the mount service: every mounted
file contributes per-record summaries (min/max/sum/count and gap counts) to
a derived-metadata table ``DR``. Because ``DR`` is classified as metadata,
later summary queries can be answered at the breakpoint **without mounting
anything** — :meth:`DerivedMetadataStore.try_answer` implements that fast
path for ungrouped decomposable aggregates over the sample values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..db.database import Database, QueryResult
from ..db.expr import ColumnRef, Comparison, conjuncts
from ..db.plan.logical import (
    Aggregate,
    Join,
    ResultScan,
    Select,
)
from ..db.plan.physical import ExecutionContext
from ..db.schema import ColumnDef, TableKind, TableSchema
from ..db.table import ColumnBatch
from ..db.types import DataType
from .decompose import Decomposition, _replace_subtree
from .executor_util import batch_from_rows

DERIVED_TABLE = "DR"
_DERIVED_TAG = "derived_agg"


def derived_table_schema() -> TableSchema:
    return TableSchema(
        name=DERIVED_TABLE,
        columns=[
            ColumnDef("uri", DataType.STRING),
            ColumnDef("record_id", DataType.INT64),
            ColumnDef("min_value", DataType.FLOAT64),
            ColumnDef("max_value", DataType.FLOAT64),
            ColumnDef("sum_value", DataType.FLOAT64),
            ColumnDef("nsamples", DataType.INT64),
            ColumnDef("gap_count", DataType.INT64),
        ],
        kind=TableKind.DERIVED,
        primary_key=("uri", "record_id"),
    )


class DerivedMetadataStore:
    """Collects and serves derived metadata for one database."""

    def __init__(self, db: Database, value_column: str = "sample_value") -> None:
        self.db = db
        self.value_column = value_column
        if not db.catalog.has_table(DERIVED_TABLE):
            db.create_table(derived_table_schema())
        self._files_done: set[str] = set(
            db.catalog.table(DERIVED_TABLE).batch.column("uri").to_pylist()
        )

    # -- collection (the mount side-effect) ------------------------------------

    def on_mount(self, uri: str, batch: ColumnBatch) -> None:
        """Summarize one mounted file into ``DR`` (idempotent per file)."""
        if uri in self._files_done:
            return
        self._files_done.add(uri)
        # Summaries read ids and times row by row: materialized here.
        record_ids = batch.column("record_id").materialize().values
        times = batch.column("sample_time").materialize().values
        values = batch.column("sample_value").values
        rows = []
        for rid in np.unique(record_ids):
            mask = record_ids == rid
            rows.append(
                (
                    uri,
                    int(rid),
                    float(values[mask].min()) if mask.any() else float("nan"),
                    float(values[mask].max()) if mask.any() else float("nan"),
                    float(values[mask].sum()),
                    int(mask.sum()),
                    _count_gaps(times[mask]),
                )
            )
        if rows:
            self.db.insert_rows(DERIVED_TABLE, rows)

    # -- exploitation (the breakpoint fast path) ---------------------------------

    def try_answer(
        self,
        decomposition: Decomposition,
        files_by_alias: dict[str, list[str]],
        ctx: ExecutionContext,
        db: Database,
    ) -> Optional[QueryResult]:
        """Answer an ungrouped summary aggregate from ``DR`` if possible.

        Conditions: a single actual scan; one ungrouped Aggregate whose
        functions are avg/sum/count/min/max over the value column (or
        COUNT(*)); the actual table's columns appear nowhere else except as
        equi-join keys on uri/record_id; and every file of interest has
        already contributed to ``DR``. Returns None when any condition
        fails, in which case normal stage-2 mounting proceeds.
        """
        if decomposition.qs is None or len(decomposition.actual_scans) != 1:
            return None
        info = decomposition.actual_scans[0]
        alias = info.alias
        files = files_by_alias.get(alias, [])
        if any(uri not in self._files_done for uri in files):
            return None

        aggregate = next(
            (n for n in decomposition.qs.walk() if isinstance(n, Aggregate)), None
        )
        if aggregate is None or aggregate.groups:
            return None
        value_key = f"{alias}.{self.value_column}"
        for spec in aggregate.aggs:
            if spec.distinct or spec.func not in ("avg", "sum", "count", "min", "max"):
                return None
            if spec.arg is not None and (
                not isinstance(spec.arg, ColumnRef) or spec.arg.key != value_key
            ):
                return None

        record_pairs = self._record_scope(decomposition, alias, ctx)
        if record_pairs is _INVALID:
            return None

        dr_rows = self._scoped_rows(files, record_pairs)
        values = _aggregate_from_summaries(aggregate, dr_rows)
        final_batch = batch_from_rows(aggregate.output, [values])
        ctx.results[_DERIVED_TAG] = final_batch
        remainder = _replace_subtree(
            decomposition.qs, aggregate,
            ResultScan(_DERIVED_TAG, list(aggregate.output)),
        )
        return db.execute_plan(remainder, ctx)

    def _record_scope(
        self, decomposition: Decomposition, alias: str, ctx
    ) -> "set[tuple[str, int]] | None | object":
        """The (uri, record_id) pairs the query touches, from stage 1.

        None = whole files; ``_INVALID`` = the query constrains the actual
        table in ways derived metadata cannot honor.
        """
        assert decomposition.qs is not None
        uri_partner = None
        record_partner = None
        for node in decomposition.qs.walk():
            if isinstance(node, Select):
                refs = node.predicate.references()
                if any(r.startswith(f"{alias}.") for r in refs):
                    return _INVALID
            if isinstance(node, Join) and node.condition is not None:
                for conj in conjuncts(node.condition):
                    refs = conj.references()
                    mine = [r for r in refs if r.startswith(f"{alias}.")]
                    if not mine:
                        continue
                    if (
                        isinstance(conj, Comparison)
                        and conj.op == "="
                        and isinstance(conj.left, ColumnRef)
                        and isinstance(conj.right, ColumnRef)
                    ):
                        own, other = (
                            (conj.left.key, conj.right.key)
                            if conj.left.key.startswith(f"{alias}.")
                            else (conj.right.key, conj.left.key)
                        )
                        column = own.split(".", 1)[1]
                        if column == "uri":
                            uri_partner = other
                            continue
                        if column == "record_id":
                            record_partner = other
                            continue
                    return _INVALID
        if record_partner is None:
            return None
        qf_batch = ctx.results.get(decomposition.result_tag)
        if qf_batch is None or uri_partner is None:
            return _INVALID
        uris = qf_batch.column(uri_partner).to_pylist()
        rids = qf_batch.column(record_partner).to_pylist()
        return set(zip(uris, (int(r) for r in rids)))

    def _scoped_rows(
        self, files: list[str], record_pairs
    ) -> list[tuple]:
        batch = self.db.catalog.table(DERIVED_TABLE).batch
        uris = batch.column("uri").to_pylist()
        rows = batch.rows()
        file_set = set(files)
        kept = []
        for uri, row in zip(uris, rows):
            if uri not in file_set:
                continue
            if record_pairs is not None and (uri, int(row[1])) not in record_pairs:
                continue
            kept.append(row)
        return kept


_INVALID = object()


def _count_gaps(times: np.ndarray) -> int:
    """Gaps = sampling steps more than 1.5× the typical step (§5's example
    of analyzed derived metadata)."""
    if len(times) < 3:
        return 0
    diffs = np.diff(np.sort(times))
    typical = np.median(diffs)
    if typical <= 0:
        return 0
    return int((diffs > 1.5 * typical).sum())


def _aggregate_from_summaries(aggregate: Aggregate, dr_rows: list[tuple]) -> tuple:
    """Evaluate the final aggregates from (uri, rid, min, max, sum, n, gaps)."""
    total_sum = sum(row[4] for row in dr_rows)
    total_n = sum(row[5] for row in dr_rows)
    mins = [row[2] for row in dr_rows if row[5] > 0]
    maxs = [row[3] for row in dr_rows if row[5] > 0]
    values = []
    for spec in aggregate.aggs:
        if spec.func == "count":
            values.append(int(total_n))
        elif spec.func == "sum":
            values.append(
                float(total_sum) if spec.dtype is DataType.FLOAT64 else int(total_sum)
            )
        elif spec.func == "avg":
            values.append(total_sum / total_n if total_n else float("nan"))
        elif spec.func == "min":
            values.append(min(mins) if mins else float("nan"))
        else:  # max
            values.append(max(maxs) if maxs else float("nan"))
    return tuple(values)
