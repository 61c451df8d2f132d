"""Statistics catalog: cardinality and per-file statistics for cost-based
optimization.

Two kinds of statistics feed the optimizer:

* **per-table row counts**, read straight off the catalog's loaded batches —
  these drive :func:`~repro.db.plan.rewrite.cost_based_join_order`'s choice
  of hash-join build side via :meth:`StatisticsCatalog.estimate_rows`;
* **per-file statistics** (time hull, record, sample and byte counts),
  sourced from the already-ingested ``F`` metadata table — these drive
  Top-N early termination (a union branch whose time hull cannot beat the
  current heap threshold is never mounted), the mount-vs-seek access-path
  choice (a request interval covering the whole file's span makes the seek
  ladder pure overhead), and the breakpoint's time pruning and
  informativeness estimate.

Cardinality estimation uses the classic System R selectivity constants: no
histograms are kept, and the point is not precision — only that the relative
ordering of join inputs is usually right, and that every estimate is cheap
enough to run at compile time on every query.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import Catalog
from .expr import BoolOp, Comparison, Expr, conjuncts
from .plan.logical import (
    Aggregate,
    Distinct,
    Join,
    Limit,
    LogicalPlan,
    Scan,
    Select,
    SemiJoin,
    TopN,
    UnionAll,
)

# System R (Selinger et al. 1979) default selectivities.
EQ_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 0.3
DEFAULT_SELECTIVITY = 0.5

#: Assumed cardinality for relations with no statistics (e.g. a table the
#: catalog has not loaded yet). Deliberately large: an unknown relation
#: should not be mistaken for a small build side.
DEFAULT_TABLE_ROWS = 1_000_000

_RANGE_OPS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class FileStatistics:
    """Per-file statistics from one ``F`` metadata row."""

    uri: str
    start_time: int
    end_time: int
    nrecords: int
    nsamples: int
    size_bytes: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.start_time, self.end_time)


_COUNTS = ("nrecords", "nsamples", "size_bytes")


class FileStatisticsColumns(Mapping[str, FileStatistics]):
    """Per-file statistics kept as ``F``'s columns: URI → row, and one
    int64 array per statistic. A :class:`FileStatistics` is built the first
    time its URI is looked up, and kept: a snapshot serves every query of an
    executor, and a query may look up every file of interest."""

    def __init__(
        self, uris: list[str], columns: dict[str, np.ndarray]
    ) -> None:
        self._rows = {uri: k for k, uri in enumerate(uris)}
        self._columns = tuple(
            columns[name] for name in ("start_time", "end_time", *_COUNTS)
        )
        # Filled under the GIL: two threads racing on one URI build equal
        # values, and either may stay.
        self._built: dict[str, FileStatistics] = {}

    def __getitem__(self, uri: str) -> FileStatistics:
        stats = self._built.get(uri)
        if stats is None:
            k = self._rows[uri]
            stats = FileStatistics(uri, *(int(c[k]) for c in self._columns))
            self._built[uri] = stats
        return stats

    def __contains__(self, uri: object) -> bool:
        return uri in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class StatisticsCatalog:
    """A snapshot of table cardinalities and per-file statistics.

    Build one with :func:`collect_statistics`; it is a plain value object so
    callers control its lifetime (the two-stage executor rebuilds it when the
    ``F`` batch it was collected from is replaced by a metadata load).
    """

    table_rows: dict[str, int] = field(default_factory=dict)
    files: Mapping[str, FileStatistics] = field(default_factory=dict)
    default_rows: int = DEFAULT_TABLE_ROWS

    # -- per-file lookups -------------------------------------------------------

    def file_span(self, uri: str) -> Optional[tuple[int, int]]:
        """``(start_time, end_time)`` hull of a file, or None if unknown."""
        stats = self.files.get(uri)
        return stats.span if stats is not None else None

    def file_bytes(self, uri: str) -> Optional[int]:
        stats = self.files.get(uri)
        return stats.size_bytes if stats is not None else None

    # -- cardinality estimation ------------------------------------------------

    def estimate_rows(self, plan: LogicalPlan) -> float:
        """Estimated output cardinality of ``plan`` (never negative)."""
        if isinstance(plan, Scan):
            return float(
                self.table_rows.get(plan.table_name.lower(), self.default_rows)
            )
        if isinstance(plan, Select):
            return self.estimate_rows(plan.child) * _selectivity(plan.predicate)
        if isinstance(plan, Join):
            left = self.estimate_rows(plan.left)
            right = self.estimate_rows(plan.right)
            if plan.condition is None:
                return left * right
            # Equi-join with the larger side treated as the key domain.
            return left * right / max(left, right, 1.0)
        if isinstance(plan, (Limit, TopN)):
            return min(float(plan.count), self.estimate_rows(plan.children()[0]))
        if isinstance(plan, UnionAll):
            return sum(self.estimate_rows(child) for child in plan.inputs)
        if isinstance(plan, Aggregate):
            if not plan.groups:
                return 1.0
            return max(1.0, self.estimate_rows(plan.child) * 0.1)
        if isinstance(plan, SemiJoin):
            return self.estimate_rows(plan.child) * DEFAULT_SELECTIVITY
        if isinstance(plan, Distinct):
            return max(1.0, self.estimate_rows(plan.child) * 0.1)
        children = plan.children()
        if len(children) == 1:
            # Project, Sort, and other row-preserving unary nodes.
            return self.estimate_rows(children[0])
        if not children:
            # ResultScan and other leaves without statistics.
            return float(self.default_rows)
        return sum(self.estimate_rows(child) for child in children)


def _selectivity(predicate: Expr) -> float:
    """System R-style selectivity of a (possibly conjunctive) predicate."""
    parts = conjuncts(predicate)
    if len(parts) > 1:
        factor = 1.0
        for part in parts:
            factor *= _selectivity(part)
        return factor
    part = parts[0]
    if isinstance(part, Comparison):
        if part.op == "=":
            return EQ_SELECTIVITY
        if part.op in _RANGE_OPS:
            return RANGE_SELECTIVITY
        return DEFAULT_SELECTIVITY
    if isinstance(part, BoolOp) and part.op == "or":
        # Independence: sel(a OR b) = 1 - (1-sel(a))(1-sel(b)).
        miss = 1.0
        for operand in part.operands:
            miss *= 1.0 - _selectivity(operand)
        return min(1.0, max(0.0, 1.0 - miss))
    return DEFAULT_SELECTIVITY


def collect_statistics(
    catalog: Catalog, file_table: Optional[str] = None
) -> StatisticsCatalog:
    """Snapshot table row counts (and per-file statistics from ``file_table``).

    ``file_table`` names the metadata table holding one row per repository
    file with ``uri`` / ``start_time`` / ``end_time`` columns (the ingest
    pipeline's ``F``); ``nrecords``, ``nsamples`` and ``size_bytes`` are read
    when present.
    Missing tables or columns degrade to empty statistics, never errors —
    the optimizer must work on a catalog that has not ingested anything yet.
    """
    stats = StatisticsCatalog()
    for table in catalog.tables():
        stats.table_rows[table.schema.name.lower()] = table.batch.num_rows
    if file_table is None or not catalog.has_table(file_table):
        return stats
    batch = catalog.table(file_table).batch
    required = ("uri", "start_time", "end_time")
    if any(name not in batch.names for name in required):
        return stats
    uris = batch.column("uri").to_pylist()
    columns = {
        name: batch.column(name).values
        if name in batch.names
        else np.zeros(len(uris), dtype=np.int64)
        for name in ("start_time", "end_time", *_COUNTS)
    }
    stats.files = FileStatisticsColumns(uris, columns)
    return stats
