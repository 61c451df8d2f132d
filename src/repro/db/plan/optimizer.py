"""Optimizer pipeline: logical rewrites and logical→physical planning.

The compile-time phase mirrors §3 of the paper: usual optimizations
(selection pushdown, cross-product→join, column pruning) plus the additional
metadata-first join reordering that shapes the plan for two-stage execution.

Physical planning chooses access paths: table scans, hash joins, and — when
eager ingestion has built a key index matching the join columns — index
joins, which is what makes Ei pay for index residency on cold runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only (stats imports plan.logical)
    from ..stats import StatisticsCatalog

from ..catalog import Catalog
from ..errors import PlanError
from ..expr import ColumnRef, Comparison, Expr, conjoin, conjuncts
from ..index import HashIndex
from .logical import (
    Aggregate,
    CacheScan,
    Distinct,
    Join,
    Limit,
    LogicalPlan,
    Mount,
    Project,
    ResultScan,
    Scan,
    Select,
    SemiJoin,
    Sort,
    TopN,
    UnionAll,
)
from .physical import (
    PAggregate,
    PCacheScan,
    PDistinct,
    PFilter,
    PHashJoin,
    PIndexJoin,
    PIndexScan,
    PLimit,
    PMount,
    PNestedLoopJoin,
    PProject,
    PResultScan,
    PSemiJoin,
    PSort,
    PTableScan,
    PTopN,
    PUnionAll,
    PhysicalOp,
)
from .rewrite import (
    ClassifyFn,
    cost_based_join_order,
    fuse_top_n,
    metadata_first_join_order,
    prune_columns,
    push_down_selections,
)
from .verify import verify_pass, verify_plan


def optimize_logical(
    plan: LogicalPlan,
    classify: Optional[ClassifyFn] = None,
    verify: bool = False,
    stats: Optional["StatisticsCatalog"] = None,
    fuse_topn: bool = True,
) -> LogicalPlan:
    """Run the compile-time rewrite pipeline.

    ``classify`` enables the metadata-first reordering; passing None gives
    the classic optimizer a conventional database would run. ``verify``
    checks the binder's output and every pass against the structural
    invariants in :mod:`repro.db.plan.verify`, raising
    :class:`~repro.db.errors.PlanInvariantError` on the first violation.
    ``stats`` (a :class:`~repro.db.stats.StatisticsCatalog`) enables the
    cost-based join orientation pass; ``fuse_topn`` controls Sort+Limit
    fusion into :class:`~repro.db.plan.logical.TopN` (off reproduces the
    exhaustive sort-then-slice plan, the baseline the benchmarks compare
    against).
    """
    if verify:
        verify_plan(plan, "bind")
    stages: list[tuple[str, LogicalPlan]] = [("bind", plan)]
    plan = push_down_selections(plan)
    stages.append(("push-down-selections", plan))
    if classify is not None:
        plan = metadata_first_join_order(plan, classify)
        stages.append(("metadata-first-join-order", plan))
        plan = push_down_selections(plan)
        stages.append(("push-down-selections", plan))
    if fuse_topn:
        plan = fuse_top_n(plan)
        stages.append(("fuse-top-n", plan))
    if stats is not None and classify is not None:
        plan = cost_based_join_order(plan, stats, classify)
        stages.append(("cost-based-join-order", plan))
    plan = prune_columns(plan)
    stages.append(("prune-columns", plan))
    if verify:
        for (_, before), (pass_name, after) in zip(stages, stages[1:]):
            verify_pass(before, after, pass_name)
    return plan


def _split_equi_condition(
    condition: Optional[Expr], left_keys: set[str], right_keys: set[str]
) -> tuple[list[tuple[str, str]], Optional[Expr]]:
    """Separate ``left.col = right.col`` conjuncts from the rest."""
    if condition is None:
        return [], None
    pairs: list[tuple[str, str]] = []
    residual: list[Expr] = []
    for conj in conjuncts(condition):
        if (
            isinstance(conj, Comparison)
            and conj.op == "="
            and isinstance(conj.left, ColumnRef)
            and isinstance(conj.right, ColumnRef)
        ):
            lkey, rkey = conj.left.key, conj.right.key
            if lkey in left_keys and rkey in right_keys:
                pairs.append((lkey, rkey))
                continue
            if rkey in left_keys and lkey in right_keys:
                pairs.append((rkey, lkey))
                continue
        residual.append(conj)
    return pairs, conjoin(residual)


def _as_filtered_scan(plan: LogicalPlan) -> Optional[tuple[Scan, Optional[Expr]]]:
    """Match ``Scan`` or ``Select(Scan)`` — the shapes whose key indexes a
    join can consult."""
    if isinstance(plan, Scan):
        return plan, None
    if isinstance(plan, Select) and isinstance(plan.child, Scan):
        return plan.child, plan.predicate
    return None


class PhysicalPlanner:
    """Translate an optimized logical plan into a physical operator tree."""

    def __init__(self, catalog: Catalog, use_indexes: bool = True) -> None:
        self.catalog = catalog
        self.use_indexes = use_indexes

    def plan(self, node: LogicalPlan) -> PhysicalOp:
        if isinstance(node, Scan):
            return self._plan_scan(node)
        if isinstance(node, Select):
            if self.use_indexes and isinstance(node.child, Scan):
                indexed = self._try_index_scan(node.child, node.predicate)
                if indexed is not None:
                    return indexed
            return PFilter(self.plan(node.child), node.predicate)
        if isinstance(node, Project):
            return PProject(self.plan(node.child), node.items)
        if isinstance(node, Join):
            return self._plan_join(node)
        if isinstance(node, SemiJoin):
            return PSemiJoin(
                self.plan(node.child),
                node.operand,
                self.plan(node.subplan),
                node.negated,
            )
        if isinstance(node, Aggregate):
            return PAggregate(self.plan(node.child), node.groups, node.aggs)
        if isinstance(node, Sort):
            return PSort(self.plan(node.child), node.keys)
        if isinstance(node, TopN):
            return PTopN(
                self.plan(node.child),
                node.keys,
                node.count,
                [key for key, _ in node.output],
                [dtype for _, dtype in node.output],
            )
        if isinstance(node, Limit):
            return PLimit(
                self.plan(node.child),
                node.count,
                [key for key, _ in node.output],
                [dtype for _, dtype in node.output],
            )
        if isinstance(node, Distinct):
            return PDistinct(self.plan(node.child))
        if isinstance(node, UnionAll):
            return PUnionAll(
                [self.plan(child) for child in node.inputs],
                [key for key, _ in node.output],
                [dtype for _, dtype in node.output],
            )
        if isinstance(node, ResultScan):
            return PResultScan(node.tag, node.output_keys())
        if isinstance(node, Mount):
            return PMount(
                node.uri, node.table_name, node.alias,
                node.predicate, node.output_keys(),
            )
        if isinstance(node, CacheScan):
            return PCacheScan(
                node.uri, node.table_name, node.alias,
                node.predicate, node.output_keys(),
            )
        raise PlanError(f"no physical translation for {type(node).__name__}")

    def _plan_scan(self, node: Scan) -> PTableScan:
        columns = [
            (key.split(".", 1)[1], key, dtype) for key, dtype in node.output
        ]
        return PTableScan(node.table_name, node.alias, columns)

    def _try_index_scan(
        self, scan: Scan, predicate: Expr
    ) -> Optional[PhysicalOp]:
        """Serve ``σ(scan)`` through a key index when equality conjuncts pin
        every column of some index on the table."""
        from ..expr import Literal

        equalities: dict[str, object] = {}
        for conj in conjuncts(predicate):
            if (
                isinstance(conj, Comparison)
                and conj.op == "="
            ):
                ref, lit = None, None
                if isinstance(conj.left, ColumnRef) and isinstance(conj.right, Literal):
                    ref, lit = conj.left, conj.right
                elif isinstance(conj.right, ColumnRef) and isinstance(conj.left, Literal):
                    ref, lit = conj.right, conj.left
                if ref is not None and ref.key.startswith(f"{scan.alias}."):
                    column = ref.key.split(".", 1)[1]
                    equalities.setdefault(column, lit.value)
        if not equalities:
            return None
        best: Optional[tuple[tuple[str, ...], HashIndex]] = None
        for (tname, columns), index in self.catalog.indexes().items():
            if tname != scan.table_name.lower():
                continue
            if set(columns) <= equalities.keys():
                if best is None or len(columns) > len(best[0]):
                    best = (columns, index)
        if best is None:
            return None
        index_columns, index = best
        if len(index_columns) == 1:
            key: object = equalities[index_columns[0]]
        else:
            key = tuple(equalities[c] for c in index_columns)
        # The full predicate stays as residual: re-checking the equality
        # conjuncts on the (small) matched rows is cheap and keeps the
        # rewrite trivially sound.
        columns = [
            (out_key.split(".", 1)[1], out_key, dtype)
            for out_key, dtype in scan.output
        ]
        return PIndexScan(
            table_name=scan.table_name,
            alias=scan.alias,
            columns=columns,
            index=index,
            key=key,
            residual=predicate,
        )

    def _plan_join(self, node: Join) -> PhysicalOp:
        left_keys = set(node.left.output_keys())
        right_keys = set(node.right.output_keys())
        pairs, residual = _split_equi_condition(
            node.condition, left_keys, right_keys
        )
        if not pairs:
            return PNestedLoopJoin(
                self.plan(node.left),
                self.plan(node.right),
                node.output_keys(),
                node.condition,
            )
        if self.use_indexes:
            indexed = self._try_index_join(node, pairs, residual)
            if indexed is not None:
                return indexed
        return PHashJoin(
            self.plan(node.left),
            self.plan(node.right),
            [lk for lk, _ in pairs],
            [rk for _, rk in pairs],
            node.output_keys(),
            residual,
            index_sideload=self._sideload_indexes(node, pairs),
        )

    def _sideload_indexes(
        self, node: Join, pairs: list[tuple[str, str]]
    ) -> list[HashIndex]:
        """Key indexes the engine consults for a hash join over base scans.

        This models MonetDB's behaviour in the paper's Ei baseline: joins
        over eagerly loaded tables bring the matching primary/foreign key
        indexes into memory (charged on cold runs) even though our hash join
        does not need them for correctness.
        """
        if not self.use_indexes:
            return []
        sideload: list[HashIndex] = []
        for side, own_keys in (
            (node.left, [lk for lk, _ in pairs]),
            (node.right, [rk for _, rk in pairs]),
        ):
            match = _as_filtered_scan(side)
            if match is None:
                continue
            scan, _ = match
            columns = {key.split(".", 1)[1] for key in own_keys}
            found = self._find_index(scan.table_name, columns)
            if found is not None:
                sideload.append(found[1])
        return sideload

    def _find_index(
        self, table_name: str, column_set: set[str]
    ) -> Optional[tuple[tuple[str, ...], HashIndex]]:
        for (tname, columns), index in self.catalog.indexes().items():
            if tname == table_name.lower() and set(columns) == column_set:
                return columns, index
        return None

    def _try_index_join(
        self,
        node: Join,
        pairs: list[tuple[str, str]],
        residual: Optional[Expr],
    ) -> Optional[PhysicalOp]:
        """Use a stored key index when one join side is a (filtered) base scan
        whose equi-key columns exactly match an existing index."""
        for side, probe_on_left in ((node.right, True), (node.left, False)):
            # Index joins only serve *pure* scans: a selection on the stored
            # side means the engine must scan its columns anyway (MonetDB
            # evaluates such selections by full column scan), so the planner
            # keeps the hash join and only sideloads the key index.
            if not isinstance(side, Scan):
                continue
            match = _as_filtered_scan(side)
            if match is None:
                continue
            scan, stored_predicate = match
            if probe_on_left:
                side_pairs = pairs  # (probe key, stored key)
            else:
                side_pairs = [(rk, lk) for lk, rk in pairs]
            stored_cols = {key.split(".", 1)[1] for _, key in side_pairs}
            found = self._find_index(scan.table_name, stored_cols)
            if found is None:
                continue
            index_columns, index = found
            by_col = {key.split(".", 1)[1]: probe for probe, key in side_pairs}
            probe_keys = [by_col[col] for col in index_columns]
            probe_side = node.left if probe_on_left else node.right
            stored_columns = [
                (key.split(".", 1)[1], key, dtype) for key, dtype in scan.output
            ]
            return PIndexJoin(
                probe=self.plan(probe_side),
                probe_keys=probe_keys,
                table_name=scan.table_name,
                alias=scan.alias,
                stored_columns=stored_columns,
                index=index,
                output_names=node.output_keys(),
                stored_predicate=stored_predicate,
                residual=residual,
                probe_on_left=probe_on_left,
            )
        return None
