"""Physical operators (operator-at-a-time, MonetDB style).

Each operator materializes its full result as a :class:`ColumnBatch`. Base
table and index accesses go through the :class:`BufferManager` so cold/hot
experiments can charge simulated disk reads.

The mount and cache-scan access paths delegate to a :class:`Mounter`
implementation supplied by the two-stage layer, keeping the engine itself
ignorant of file formats and cache policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Protocol, Union

import numpy as np

from ..buffer import BufferManager, index_object_name, table_object_name
from ..catalog import Catalog
from ..column import Blocks, Column, RecordRuns, RunColumn
from ..errors import ExecutionError
from ..expr import Expr, conjoin
from ..index import HashIndex
from ..table import ColumnBatch, concat_batches
from ..types import DataType
from ...obs import QueryTrace
from .kernels import (
    combined_codes,
    factorize,
    first_occurrence_indices,
    group_by_codes,
    join_codes,
    sort_indices,
    top_n_indices,
)
from .logical import AggSpec


class GovernorHook(Protocol):
    """The two-stage layer's budget/cancellation hook.

    :meth:`checkpoint` is called between physical operators (the kernel
    loop's safe points); it raises a typed error to stop the query. The
    engine knows nothing about budgets — only that a checkpoint may abort.
    """

    def checkpoint(self) -> None:
        ...


class Mounter(Protocol):
    """The two-stage layer's hook for ALi access paths.

    ``context`` is the executing query's
    :attr:`ExecutionContext.mount_context`, opaque to the engine: the
    mounter is shared by every query, so what belongs to one arrives with
    the call. The mounter counts what each access path did (a file
    mounted, a cache scan served, a fallback) in the query's trace; the
    operators count nothing.
    """

    def mount_file(
        self,
        uri: str,
        table_name: str,
        alias: str,
        predicate: Optional[Expr],
        context: object = None,
    ) -> ColumnBatch:
        """Extract/transform/ingest one file; return its (filtered) tuples."""
        ...

    def cache_scan(
        self,
        uri: str,
        table_name: str,
        alias: str,
        predicate: Optional[Expr],
        context: object = None,
    ) -> ColumnBatch:
        """Serve one file's (filtered) tuples from the ingestion cache."""
        ...


class BranchMonitor(Protocol):
    """The two-stage layer's Top-N early-termination hook.

    A union whose branches are per-file access paths consults the monitor:
    ``schedule`` picks the consumption order (most promising time hull
    first), ``should_skip`` asks whether a branch provably cannot contribute
    to the running Top-N threshold, ``observe`` feeds each produced branch
    into the threshold, and ``note_result`` lets the Top-N operator report
    its final rows so the skips can be re-verified against the true answer.
    """

    def schedule(self, n: int) -> list[int]:
        ...

    def should_skip(self, index: int) -> bool:
        ...

    def observe(self, index: int, batch: ColumnBatch) -> None:
        ...

    def note_result(self, primary: Expr, batch: ColumnBatch) -> None:
        ...


@dataclass
class ExecutionContext:
    """Everything operators need at run time."""

    catalog: Catalog
    buffers: Optional[BufferManager] = None
    mounter: Optional[Mounter] = None
    governor: Optional[GovernorHook] = None
    mount_context: object = None  # handed to every mounter call, see Mounter
    results: dict[str, ColumnBatch] = field(default_factory=dict)
    # The executing query's trace: every operator records an ``op`` span.
    trace: QueryTrace = field(default_factory=QueryTrace)
    # Installed by the two-stage executor for Top-N queries over a rule-(1)
    # union; None means unions execute every branch in plan order.
    branch_monitor: Optional[BranchMonitor] = None

    def touch(self, name: str, nbytes: int) -> None:
        if self.buffers is not None:
            self.buffers.touch(name, nbytes)


class PhysicalOp:
    """Base class; ``execute`` returns the operator's full result.

    Every execution records one ``op`` span in the context's trace
    (pre-order, nested under its parent operator's) with the operator's
    rows and inclusive wall time.
    """

    def execute(self, ctx: ExecutionContext) -> ColumnBatch:
        if ctx.governor is not None:
            # Kernel-loop safe point: between materializations is the one
            # place every operator passes through, so deadline/cancellation
            # latency is bounded by a single operator, not a whole stage.
            ctx.governor.checkpoint()
        trace = ctx.trace
        span = trace.open("op", type(self).__name__ + self._span_detail())
        try:
            batch = self._run(ctx)
        finally:
            trace.close(span)
        span.rows = batch.num_rows
        return batch

    def _span_detail(self) -> str:
        for attr in ("table_name", "uri", "tag"):
            value = getattr(self, attr, None)
            if value is not None:
                return f"({value})"
        return ""

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        """The operator's own work; ``execute`` wraps it in a span."""


@dataclass
class PTableScan(PhysicalOp):
    """Scan a base table, producing columns under qualified keys."""

    table_name: str
    alias: str
    columns: list[tuple[str, str, DataType]]  # (column, qualified key, dtype)

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        table = ctx.catalog.table(self.table_name)
        names: list[str] = []
        cols: list[Column] = []
        for column_name, key, _ in self.columns:
            column = table.batch.column(column_name)
            ctx.touch(
                table_object_name(self.table_name, column_name), column.nbytes()
            )
            names.append(key)
            cols.append(column)
        return ColumnBatch(names, cols)


@dataclass
class PIndexScan(PhysicalOp):
    """Index scan: fetch the rows matching an equality key via a key index.

    One of the two classic access paths the paper starts from ("an access
    path is either a scan or an index-scan", §3). The residual predicate
    holds whatever conjuncts the index key did not absorb.
    """

    table_name: str
    alias: str
    columns: list[tuple[str, str, DataType]]  # (column, qualified key, dtype)
    index: HashIndex
    key: object
    residual: Optional[Expr] = None

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        ctx.touch(
            index_object_name(self.table_name, self.index.column_names),
            self.index.nbytes(),
        )
        rowids = self.index.lookup(self.key)
        table = ctx.catalog.table(self.table_name)
        names: list[str] = []
        cols: list[Column] = []
        for column_name, key, _ in self.columns:
            column = table.batch.column(column_name)
            ctx.touch(
                table_object_name(self.table_name, column_name), column.nbytes()
            )
            names.append(key)
            cols.append(column.take(rowids))
        batch = ColumnBatch(names, cols)
        if self.residual is not None:
            mask = self.residual.evaluate(batch).values
            batch = batch.filter(mask)
        return batch


@dataclass
class PFilter(PhysicalOp):
    child: PhysicalOp
    predicate: Expr

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        batch = self.child.execute(ctx)
        mask = self.predicate.evaluate(batch).values
        return batch.filter(mask)


@dataclass
class PProject(PhysicalOp):
    child: PhysicalOp
    items: list[tuple[str, Expr]]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        batch = self.child.execute(ctx)
        names = [name for name, _ in self.items]
        columns = [expr.evaluate(batch) for _, expr in self.items]
        return ColumnBatch(names, columns)


@dataclass
class PHashJoin(PhysicalOp):
    """Equi hash join; optional residual predicate for mixed conditions.

    ``index_sideload`` lists key indexes the engine consults for this join
    (MonetDB style: "the foreign key indexes in Ei have to be brought into
    main memory to compute the joins", §4). They are touched in the buffer
    manager — charging cold-run I/O — without changing the join result.
    """

    left: PhysicalOp
    right: PhysicalOp
    left_keys: list[str]
    right_keys: list[str]
    output_names: list[str]
    residual: Optional[Expr] = None
    index_sideload: list[HashIndex] = field(default_factory=list)

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        for index in self.index_sideload:
            ctx.touch(
                index_object_name(index.table_name, index.column_names),
                index.nbytes(),
            )
        left_batch = self.left.execute(ctx)
        right_batch = self.right.execute(ctx)
        left_cols = [left_batch.column(k) for k in self.left_keys]
        right_cols = [right_batch.column(k) for k in self.right_keys]
        left_runs, right_runs = _key_runs(left_cols), _key_runs(right_cols)
        left_codes, right_codes = join_codes(
            _unit_keys(left_cols, left_runs), _unit_keys(right_cols, right_runs)
        )
        left_idx, right_idx = _match_codes(left_codes, right_codes)
        if left_runs is not None or right_runs is not None:
            left_batch, left_idx, right_idx = _expand_runs(
                left_batch, left_idx, right_idx, left_codes, right_codes,
                left_runs, right_runs,
            )
        return _materialize(
            left_batch, right_batch, left_idx, right_idx,
            self.residual, self.output_names,
        )


# A join's right row per output row, or a function that builds it.
RightRows = Union[np.ndarray, Callable[[], np.ndarray]]


def _materialize(
    left: ColumnBatch,
    right: ColumnBatch,
    left_idx: Optional[np.ndarray],
    right_idx: RightRows,
    predicate: Optional[Expr],
    output_names: list[str],
) -> ColumnBatch:
    """The joined rows ``(left[left_idx[i]], right[right_idx[i]])`` that
    satisfy ``predicate``, as the columns ``output_names``. ``left_idx``
    None means every left row once, in order; ``right_idx`` may come as a
    function, called only if a right column is read.

    Late materialization: only the columns ``predicate`` reads are gathered
    before it is applied, and only ``output_names`` after, so a column
    nothing above the join reads is never taken.
    """
    if predicate is not None:
        references = predicate.references()
        names = [n for n in left.names + right.names if n in references]
        mask = predicate.evaluate(
            _gather(left, right, left_idx, right_idx, names)
        ).values
        left_idx = np.flatnonzero(mask) if left_idx is None else left_idx[mask]
        right_idx = _rows(right_idx)[mask]
    return _gather(left, right, left_idx, right_idx, output_names)


def _rows(right_idx: RightRows) -> np.ndarray:
    return right_idx() if callable(right_idx) else right_idx


def _gather(
    left: ColumnBatch,
    right: ColumnBatch,
    left_idx: Optional[np.ndarray],
    right_idx: RightRows,
    names: list[str],
) -> ColumnBatch:
    left_names = set(left.names)
    columns = []
    for name in names:
        if name not in left_names:
            right_idx = _rows(right_idx)
            columns.append(right.column(name).take(right_idx))
        elif left_idx is None:  # every left row, in order: nothing to take
            columns.append(left.column(name))
        else:
            columns.append(left.column(name).take(left_idx))
    return ColumnBatch(names, columns)


def _key_runs(columns: list[Column]) -> Optional[RecordRuns]:
    """The runs every key column is constant over, when they are the same
    run-encoded columns' runs; None when the keys must be read per row."""
    if not all(isinstance(c, RunColumn) and c.run_constant for c in columns):
        return None
    runs = {c.runs for c in columns}  # type: ignore[attr-defined]
    return runs.pop() if len(runs) == 1 else None


def _unit_keys(
    columns: list[Column], runs: Optional[RecordRuns]
) -> list[Column]:
    """What a join side matches: one key per run, or per row."""
    if runs is None:
        return columns
    return [column.run_values() for column in columns]  # type: ignore[attr-defined]


def _expand_runs(
    left: ColumnBatch,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    left_codes: np.ndarray,
    right_codes: np.ndarray,
    left_runs: Optional[RecordRuns],
    right_runs: Optional[RecordRuns],
) -> tuple[ColumnBatch, Optional[np.ndarray], RightRows]:
    """Row pairs from the unit pairs :func:`_match_codes` matched — a unit
    being a row, or a run of a run-keyed side — in the order matching row
    by row gives: left row order, then right row order.

    A right run expands in place into its rows. When each left run matched
    at most one right unit, the left side becomes the matched runs, kept
    whole (blocks of rows, still run-encoded), each of its rows taking its
    run's right row: built only if a right column is read. Otherwise — a
    left run matching several right units — the match is redone row by row
    on the run codes repeated over their rows.
    """
    if left_runs is None:
        assert right_runs is not None
        lengths = right_runs.length[right_idx]
        rows = Blocks(right_runs.offset[right_idx], lengths).rows()
        return left, np.repeat(left_idx, lengths), rows
    if right_runs is None and np.all(left_idx[1:] > left_idx[:-1]):
        lengths = left_runs.length[left_idx]
        if len(left_idx) < len(left_runs):
            runs, blocks = left_runs.select(left_idx)
            left = left.keep(blocks, {id(left_runs): runs})
        return left, None, partial(np.repeat, right_idx, lengths)
    left_idx, right_idx = _match_codes(
        np.repeat(left_codes, left_runs.length),
        right_codes if right_runs is None
        else np.repeat(right_codes, right_runs.length),
    )
    return left, left_idx, right_idx


def _match_codes(
    left_codes: np.ndarray, right_codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All (left, right) index pairs with equal codes (inner-join core).

    The codes are :func:`join_codes`' dense ones, so the right (build) side
    is addressed directly by code. When no right code repeats — every key
    join of a key table — a slot table holds each code's one row and a probe
    is one gather; otherwise the right rows are laid out per code (CSR: a
    ``bincount`` of offsets over a stable order) and each left row takes its
    code's run. Pairs come out in left row order, and within one left row in
    right row order — an order that depends on which codes are equal, never
    on their values.
    """
    empty = np.empty(0, dtype=np.int64)
    if len(left_codes) == 0 or len(right_codes) == 0:
        return empty, empty
    space = int(max(left_codes.max(), right_codes.max())) + 1
    rows = np.arange(len(right_codes))
    slot = np.full(space, -1, dtype=np.int64)
    slot[right_codes] = rows
    if np.array_equal(slot[right_codes], rows):
        hits = slot[left_codes]
        left_idx = np.flatnonzero(hits >= 0)
        return left_idx, hits[left_idx]
    counts = np.bincount(right_codes, minlength=space)
    starts = np.cumsum(counts) - counts
    order = np.argsort(right_codes, kind="stable")
    runs = counts[left_codes]
    total = int(runs.sum())
    if total == 0:
        return empty, empty
    left_idx = np.repeat(np.arange(len(left_codes)), runs)
    run_offsets = np.cumsum(runs) - runs
    within = np.arange(total) - np.repeat(run_offsets, runs)
    right_idx = order[np.repeat(starts[left_codes], runs) + within]
    return left_idx, right_idx


@dataclass
class PNestedLoopJoin(PhysicalOp):
    """Cartesian product with an optional filter (non-equi conditions)."""

    left: PhysicalOp
    right: PhysicalOp
    output_names: list[str]
    condition: Optional[Expr] = None

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        left_batch = self.left.execute(ctx)
        right_batch = self.right.execute(ctx)
        n_left, n_right = left_batch.num_rows, right_batch.num_rows
        left_idx = np.repeat(np.arange(n_left), n_right)
        right_idx = np.tile(np.arange(n_right), n_left)
        return _materialize(
            left_batch, right_batch, left_idx, right_idx,
            self.condition, self.output_names,
        )


@dataclass
class PIndexJoin(PhysicalOp):
    """Join by probing a pre-built key index of a stored table.

    This is how eager ingestion (Ei) pays for its indexes at query time: the
    index object is touched in the buffer manager, so a cold run charges its
    full size — the paper's "foreign key indexes have to be brought into main
    memory to compute the joins".
    """

    probe: PhysicalOp
    probe_keys: list[str]
    table_name: str
    alias: str
    stored_columns: list[tuple[str, str, DataType]]
    index: HashIndex
    output_names: list[str]
    stored_predicate: Optional[Expr] = None
    residual: Optional[Expr] = None
    probe_on_left: bool = True

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        probe_batch = self.probe.execute(ctx)
        ctx.touch(
            index_object_name(self.table_name, self.index.column_names),
            self.index.nbytes(),
        )
        probe_idx, build_rowids = self.index.lookup_many(
            [probe_batch.column(k).decoded() for k in self.probe_keys]
        )

        table = ctx.catalog.table(self.table_name)
        names: list[str] = []
        cols: list[Column] = []
        for column_name, key, _ in self.stored_columns:
            column = table.batch.column(column_name)
            ctx.touch(
                table_object_name(self.table_name, column_name), column.nbytes()
            )
            names.append(key)
            cols.append(column)
        stored = ColumnBatch(names, cols)
        sides = [(probe_batch, probe_idx), (stored, build_rowids)]
        if not self.probe_on_left:
            sides.reverse()
        (left, left_idx), (right, right_idx) = sides
        predicate = conjoin(
            [p for p in (self.stored_predicate, self.residual) if p is not None]
        )
        return _materialize(
            left, right, left_idx, right_idx, predicate, self.output_names
        )


@dataclass
class PSemiJoin(PhysicalOp):
    """Membership filter against an uncorrelated sub-plan's result."""

    child: PhysicalOp
    operand: Expr
    subplan: PhysicalOp
    negated: bool = False

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        batch = self.child.execute(ctx)
        sub_batch = self.subplan.execute(ctx)
        if sub_batch.num_columns != 1:
            raise ExecutionError(
                "IN subquery must produce exactly one column, got "
                f"{sub_batch.num_columns}"
            )
        probe_codes, member_codes = join_codes(
            [self.operand.evaluate(batch)], [sub_batch.columns[0]]
        )
        mask = np.isin(probe_codes, member_codes)
        if self.negated:
            mask = ~mask
        return batch.filter(mask)


@dataclass
class PAggregate(PhysicalOp):
    child: PhysicalOp
    groups: list[tuple[str, Expr]]
    aggs: list[AggSpec]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        batch = self.child.execute(ctx)
        n = batch.num_rows
        if self.groups:
            key_cols = [expr.evaluate(batch) for _, expr in self.groups]
            codes = combined_codes(key_cols)
            group_ids, representatives, ngroups = group_by_codes(codes)
            out_names = [name for name, _ in self.groups]
            out_cols = [col.take(representatives) for col in key_cols]
        else:
            group_ids = np.zeros(n, dtype=np.int64)
            ngroups = 1
            out_names, out_cols = [], []
        for spec in self.aggs:
            out_names.append(spec.out_name)
            out_cols.append(_aggregate(spec, batch, group_ids, ngroups))
        return ColumnBatch(out_names, out_cols)


def _aggregate(
    spec: AggSpec, batch: ColumnBatch, group_ids: np.ndarray, ngroups: int
) -> Column:
    """Compute one aggregate over grouped rows.

    The engine has no NULLs; over empty input a scalar aggregate yields 0 for
    COUNT and SUM (0.0 for a float SUM) and NaN for the other floating-point
    results (documented simplification). Integer SUM is exact, or raises
    :class:`ExecutionError` when the total does not fit int64.
    """
    if spec.arg is None:  # COUNT(*)
        return Column(DataType.INT64, _counts(group_ids, ngroups))

    arg_col = spec.arg.evaluate(batch)
    if spec.distinct and len(arg_col):
        value_codes, card = factorize(arg_col)
        pair_codes = group_ids * np.int64(max(card, 1)) + value_codes
        keep = first_occurrence_indices(pair_codes)
        group_ids = group_ids[keep]
        arg_col = arg_col.take(keep)

    if spec.func == "count":
        return Column(DataType.INT64, _counts(group_ids, ngroups))
    if spec.func == "sum" and spec.dtype is DataType.INT64:
        return Column(
            DataType.INT64, _int_sums(arg_col.values, group_ids, ngroups)
        )
    if spec.func in ("sum", "avg"):
        values = arg_col.values.astype(np.float64, copy=False)
        sums = np.bincount(group_ids, weights=values, minlength=ngroups)
        if spec.func == "avg":
            counts = _counts(group_ids, ngroups)
            with np.errstate(invalid="ignore", divide="ignore"):
                result = sums / counts
            return Column(DataType.FLOAT64, result)
        return Column(DataType.FLOAT64, sums)
    if spec.func in ("min", "max"):
        return _min_max(spec, arg_col, group_ids, ngroups)
    raise ExecutionError(f"unknown aggregate {spec.func!r}")


def _counts(group_ids: np.ndarray, ngroups: int) -> np.ndarray:
    """Rows per group; a lone group holds them all, no pass needed."""
    if ngroups == 1:
        return np.array([len(group_ids)], dtype=np.int64)
    return np.bincount(group_ids, minlength=ngroups).astype(np.int64)


def _int_sums(
    values: np.ndarray, group_ids: np.ndarray, ngroups: int
) -> np.ndarray:
    """Exact int64 sums per group. Each value is split into its high and
    low 32 bits, whose per-group sums cannot overflow; a total outside
    int64 raises instead of wrapping."""
    values = values.astype(np.int64, copy=False)
    high = np.zeros(ngroups, dtype=np.int64)
    low = np.zeros(ngroups, dtype=np.int64)
    np.add.at(high, group_ids, values >> 32)
    np.add.at(low, group_ids, values & 0xFFFFFFFF)
    high += low >> 32
    if ((high < -(1 << 31)) | (high >= 1 << 31)).any():
        raise ExecutionError("integer SUM overflows int64")
    return (high << 32) | (low & 0xFFFFFFFF)


def _min_max(
    spec: AggSpec, arg_col: Column, group_ids: np.ndarray, ngroups: int
) -> Column:
    if arg_col.dtype is DataType.STRING:
        assert arg_col.dictionary is not None
        ranks, _ = factorize(arg_col)
        best = _extreme_per_group(ranks, group_ids, ngroups, spec.func)
        # Invert the rank permutation: the dictionary code holding each rank.
        code_of_rank = np.argsort(arg_col.dictionary.sort_ranks())
        values = [
            arg_col.dictionary.decode_one(int(code_of_rank[r])) if r >= 0 else ""
            for r in best
        ]
        return Column.from_pylist(DataType.STRING, values)
    # Integer extremes stay int64: a float64 detour rounds values past 2**53.
    exact = spec.dtype in (DataType.INT64, DataType.TIMESTAMP)
    if exact:
        info = np.iinfo(np.int64)
        low, high, dtype = info.min, info.max, np.int64
    else:
        low, high, dtype = -np.inf, np.inf, np.float64
    out = np.full(ngroups, high if spec.func == "min" else low, dtype=dtype)
    reduce = np.minimum if spec.func == "min" else np.maximum
    reduce.at(out, group_ids, arg_col.values.astype(dtype, copy=False))
    counts = _counts(group_ids, ngroups)
    if exact:
        return Column(spec.dtype, np.where(counts > 0, out, 0))
    # Empty groups yield NaN for floating-point extremes (no-NULL engine).
    out = np.where(counts > 0, out, np.nan)
    return Column(DataType.FLOAT64, out)


def _extreme_per_group(
    codes: np.ndarray, group_ids: np.ndarray, ngroups: int, func: str
) -> np.ndarray:
    out = np.full(ngroups, -1, dtype=np.int64)
    if len(codes) == 0:
        return out
    if func == "min":
        big = codes.max() + 1
        tmp = np.full(ngroups, big, dtype=np.int64)
        np.minimum.at(tmp, group_ids, codes)
        counts = np.bincount(group_ids, minlength=ngroups)
        out = np.where(counts > 0, tmp, -1)
    else:
        tmp = np.full(ngroups, -1, dtype=np.int64)
        np.maximum.at(tmp, group_ids, codes)
        out = tmp
    return out


@dataclass
class PSort(PhysicalOp):
    child: PhysicalOp
    keys: list[tuple[Expr, bool]]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        batch = self.child.execute(ctx)
        if batch.num_rows == 0:
            return batch
        key_cols = [expr.evaluate(batch) for expr, _ in self.keys]
        ascending = [asc for _, asc in self.keys]
        order = sort_indices(key_cols, ascending)
        return batch.take(order)


@dataclass
class PLimit(PhysicalOp):
    child: PhysicalOp
    count: int
    output_names: Optional[list[str]] = None
    output_dtypes: Optional[list[DataType]] = None

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        if (
            self.count <= 0
            and self.output_names is not None
            and self.output_dtypes is not None
        ):
            # LIMIT 0 is defined as the empty result with the child's schema;
            # short-circuit so nothing below it executes (or mounts).
            return ColumnBatch.empty_like(self.output_names, self.output_dtypes)
        batch = self.child.execute(ctx)
        return batch.slice(0, self.count)


@dataclass
class PTopN(PhysicalOp):
    """Fused Sort+Limit: the ``count`` first rows under the sort keys.

    Selection runs through :func:`top_n_indices` — a bounded candidate set
    folded chunk-at-a-time, never a full sort — and matches
    ``sort_indices(...)[:count]`` exactly (stable ties included).
    """

    child: PhysicalOp
    keys: list[tuple[Expr, bool]]
    count: int
    output_names: list[str]
    output_dtypes: list[DataType]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        if self.count <= 0:
            return ColumnBatch.empty_like(self.output_names, self.output_dtypes)
        batch = self.child.execute(ctx)
        if batch.num_rows == 0:
            result = batch
        else:
            key_cols = [expr.evaluate(batch) for expr, _ in self.keys]
            ascending = [asc for _, asc in self.keys]
            keep = top_n_indices(key_cols, ascending, self.count)
            result = batch.take(keep)
        if ctx.branch_monitor is not None:
            # Report the emitted rows so branch skips can be audited against
            # the true threshold (the executor falls back to an exhaustive
            # run if any skip turns out unsound).
            ctx.branch_monitor.note_result(self.keys[0][0], result)
        return result


@dataclass
class PDistinct(PhysicalOp):
    child: PhysicalOp

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        batch = self.child.execute(ctx)
        if batch.num_rows == 0:
            return batch
        codes = combined_codes(batch.columns)
        keep = first_occurrence_indices(codes)
        return batch.take(keep)


@dataclass
class PUnionAll(PhysicalOp):
    children: list[PhysicalOp]
    output_names: list[str]
    output_dtypes: list[DataType]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        monitor = ctx.branch_monitor
        order = list(range(len(self.children)))
        if monitor is not None:
            order = monitor.schedule(len(self.children))
        produced: dict[int, ColumnBatch] = {}
        for index in order:
            if monitor is not None and monitor.should_skip(index):
                # The branch provably cannot contribute to the Top-N answer;
                # the monitor has already released its outstanding mount.
                continue
            batch = self.children[index].execute(ctx)
            if monitor is not None:
                monitor.observe(index, batch)
            produced[index] = batch
        # Assemble in original branch order: consumption order is purely a
        # scheduling concern, and sort-tie resolution upstream must not
        # depend on it.
        batches = [
            produced[i] for i in sorted(produced) if produced[i].num_rows > 0
        ]
        if not batches:
            return ColumnBatch.empty_like(self.output_names, self.output_dtypes)
        # Normalize column order to the declared output layout.
        batches = [b.select(self.output_names) for b in batches]
        return concat_batches(batches)


@dataclass
class PResultScan(PhysicalOp):
    """Re-read a stored sub-plan result (stage-1 feed into stage 2)."""

    tag: str
    expected_keys: list[str]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        batch = ctx.results.get(self.tag)
        if batch is None:
            raise ExecutionError(f"no stored result under tag {self.tag!r}")
        return batch.select(self.expected_keys)


@dataclass
class PMount(PhysicalOp):
    """ALi: extract–transform–ingest one external file on demand."""

    uri: str
    table_name: str
    alias: str
    predicate: Optional[Expr]
    output_names: list[str]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        if ctx.mounter is None:
            raise ExecutionError(
                f"plan contains Mount({self.uri}) but no mounter is configured"
            )
        batch = ctx.mounter.mount_file(
            self.uri, self.table_name, self.alias, self.predicate,
            ctx.mount_context,
        )
        return batch.select(self.output_names)


@dataclass
class PCacheScan(PhysicalOp):
    """Read one file's ingested tuples from the cache."""

    uri: str
    table_name: str
    alias: str
    predicate: Optional[Expr]
    output_names: list[str]

    def _run(self, ctx: ExecutionContext) -> ColumnBatch:
        if ctx.mounter is None:
            raise ExecutionError(
                f"plan contains CacheScan({self.uri}) but no mounter is configured"
            )
        batch = ctx.mounter.cache_scan(
            self.uri, self.table_name, self.alias, self.predicate,
            ctx.mount_context,
        )
        return batch.select(self.output_names)
