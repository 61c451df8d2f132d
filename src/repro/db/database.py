"""The `Database` facade: catalog + buffer manager + query pipeline.

This is the conventional single-stage execution path (what a normal
relational database does, and what the Ei baseline uses). Two-stage execution
wraps the same pieces — see :mod:`repro.core.executor`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .buffer import BufferManager, DiskModel, IoStats, index_object_name, table_object_name
from .catalog import Catalog
from .column import Column
from .errors import CatalogError
from .index import HashIndex
from .plan.binder import Binder
from .plan.logical import LogicalPlan
from .plan.optimizer import PhysicalPlanner, optimize_logical
from ..obs import QueryTrace
from .plan.physical import ExecutionContext, GovernorHook, Mounter
from .plan.verify import verify_enabled_default, verify_physical
from .schema import TableSchema
from .sql.parser import parse_sql
from .table import ColumnBatch, Table


@dataclass
class QueryResult:
    """The answer to one query, with execution accounting attached."""

    names: list[str]
    batch: ColumnBatch
    elapsed_cpu: float
    io: IoStats
    trace: QueryTrace

    @property
    def num_rows(self) -> int:
        return self.batch.num_rows

    def rows(self) -> list[tuple[Any, ...]]:
        return self.batch.rows()

    def column(self, name: str) -> list[Any]:
        return self.batch.column(name).to_pylist()

    def scalar(self) -> Any:
        """The single value of a 1×1 result (e.g. ``SELECT AVG(...)``)."""
        rows = self.rows()
        if len(rows) != 1 or len(rows[0]) != 1:
            raise CatalogError(
                f"scalar() on a {len(rows)}x{len(rows[0]) if rows else 0} result"
            )
        return rows[0][0]

    @property
    def total_seconds(self) -> float:
        """CPU wall time plus simulated disk time — the reported metric."""
        return self.elapsed_cpu + self.io.simulated_seconds

    def pretty(self, limit: int = 20) -> str:
        """Simple fixed-width rendering for examples and demos."""
        rendered = [col.render() for col in self.batch.columns]
        widths = [
            max(len(name), *(len(v) for v in vals[:limit]), 1) if vals else len(name)
            for name, vals in zip(self.names, rendered)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(self.names, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for i in range(min(self.num_rows, limit)):
            lines.append(
                " | ".join(vals[i].ljust(w) for vals, w in zip(rendered, widths))
            )
        if self.num_rows > limit:
            lines.append(f"... ({self.num_rows - limit} more rows)")
        return "\n".join(lines)


class Database:
    """An in-process columnar database with an explicit buffer manager."""

    def __init__(
        self,
        disk_model: Optional[DiskModel] = None,
        verify_plans: Optional[bool] = None,
    ) -> None:
        self.catalog = Catalog()
        self.buffers = BufferManager(disk_model)
        if verify_plans is None:
            verify_plans = verify_enabled_default()
        self.verify_plans = verify_plans

    # -- DDL / DML ------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        return self.catalog.create_table(schema)

    def insert_rows(self, table_name: str, rows: Sequence[Sequence[Any]]) -> None:
        """Append Python rows (tests and small examples)."""
        table = self.catalog.table(table_name)
        schema = table.schema
        columns = []
        for i, col_def in enumerate(schema.columns):
            columns.append(
                Column.from_pylist(col_def.dtype, [row[i] for row in rows])
            )
        table.append(ColumnBatch(schema.column_names, columns))

    def build_key_indexes(self, table_name: str) -> float:
        """Build the table's primary and foreign key indexes.

        Returns the build time in seconds (eager ingestion charges this to
        its up-front cost, as the paper does for Ei).
        """
        table = self.catalog.table(table_name)
        started = time.perf_counter()
        key_sets: list[tuple[str, ...]] = []
        if table.schema.primary_key:
            key_sets.append(table.schema.primary_key)
        for fkey in table.schema.foreign_keys:
            key_sets.append(fkey.columns)
        for columns in key_sets:
            normalized = tuple(c.lower() for c in columns)
            if self.catalog.index_for(table_name, normalized) is not None:
                continue
            key_columns = [table.batch.column(c) for c in normalized]
            index = HashIndex.build(table_name, normalized, key_columns)
            self.catalog.register_index(table_name, normalized, index)
        return time.perf_counter() - started

    # -- buffer state (cold/hot experiments) ------------------------------------

    def make_cold(self) -> None:
        """Flush all buffers — equivalent to the paper's server restart."""
        self.buffers.flush()

    def warm_all(self) -> None:
        """Mark every table column and index resident (hot-run setup)."""
        for table in self.catalog.tables():
            for col_def, column in zip(table.schema.columns, table.batch.columns):
                self.buffers.warm(
                    table_object_name(table.name, col_def.name), column.nbytes()
                )
        for (tname, columns), index in self.catalog.indexes().items():
            self.buffers.warm(index_object_name(tname, columns), index.nbytes())

    # -- query pipeline -----------------------------------------------------------

    def bind_sql(self, sql: str) -> LogicalPlan:
        return Binder(self.catalog).bind(parse_sql(sql))

    def optimize(
        self,
        plan: LogicalPlan,
        metadata_first: bool = False,
        stats=None,  # Optional[StatisticsCatalog]
        fuse_topn: bool = True,
    ) -> LogicalPlan:
        classify = self.catalog.is_metadata_table if metadata_first else None
        return optimize_logical(
            plan,
            classify,
            verify=self.verify_plans,
            stats=stats,
            fuse_topn=fuse_topn,
        )

    def make_context(
        self,
        mounter: Optional[Mounter] = None,
        governor: Optional[GovernorHook] = None,
        mount_context: object = None,
        trace: Optional[QueryTrace] = None,
    ) -> ExecutionContext:
        """A context whose operators record into ``trace`` (a fresh one
        when None)."""
        return ExecutionContext(
            catalog=self.catalog,
            buffers=self.buffers,
            mounter=mounter,
            governor=governor,
            mount_context=mount_context,
            trace=trace if trace is not None else QueryTrace(),
        )

    def execute_plan(
        self,
        plan: LogicalPlan,
        context: Optional[ExecutionContext] = None,
        use_indexes: bool = True,
    ) -> QueryResult:
        """Plan physically and run; accounting wraps the whole execution."""
        ctx = context or self.make_context()
        io_before = self.buffers.stats.copy()
        started = time.perf_counter()
        physical = PhysicalPlanner(self.catalog, use_indexes=use_indexes).plan(plan)
        if self.verify_plans:
            verify_physical(physical, plan)
        batch = physical.execute(ctx)
        return QueryResult(
            names=list(batch.names),
            batch=batch,
            elapsed_cpu=time.perf_counter() - started,
            io=self.buffers.stats.since(io_before),
            trace=ctx.trace,
        )

    def execute(self, sql: str, use_indexes: bool = True) -> QueryResult:
        """Parse, bind, optimize (classic pipeline), and run one query."""
        plan = self.optimize(self.bind_sql(sql))
        return self.execute_plan(plan, use_indexes=use_indexes)

    # -- persistence ----------------------------------------------------------------

    def save(self, directory: str) -> int:
        """Persist every table and index definition to ``directory``.

        Returns the bytes written. Reopen with :meth:`Database.open`.
        """
        from .storage import save_catalog

        return save_catalog(self.catalog, directory)

    @classmethod
    def open(
        cls, directory: str, disk_model: Optional[DiskModel] = None
    ) -> "Database":
        """Load a database previously written by :meth:`save`.

        The new connection starts cold: nothing is resident in the buffer
        manager until queries touch it.
        """
        from .storage import load_catalog

        db = cls(disk_model)
        db.catalog = load_catalog(directory)
        return db

    # -- introspection ----------------------------------------------------------

    def explain(self, sql: str, metadata_first: bool = False) -> str:
        plan = self.optimize(self.bind_sql(sql), metadata_first=metadata_first)
        return plan.explain()

    def data_nbytes(self) -> int:
        return self.catalog.data_nbytes()

    def index_nbytes(self) -> int:
        return self.catalog.index_nbytes()
