"""Compile-time logical rewrite rules.

Three families of rules run before execution:

* classic normalization — selection splitting/pushdown, turning cartesian
  products plus predicates into joins ("combine selections and cross-products
  into joins, push down selections" — §3),
* the paper's **metadata-first join reordering**: flatten the join tree and
  rebuild it right-deep in the pattern
  ``a1 ⋈ (a2 ⋈ (… (ay ⋈ (m1 ⋈ (m2 ⋈ (… ⋈ mx))))))``
  so the metadata branch ``Q_f`` is a connected subtree that can be cut off
  and run as stage 1,
* column pruning, so scans, joins and mounts only materialize (and charge
  I/O for) columns the query needs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from ..expr import Expr, conjoin, conjuncts

if TYPE_CHECKING:  # pragma: no cover - type-only (stats imports plan.logical)
    from ..stats import StatisticsCatalog
from .logical import (
    Aggregate,
    CacheScan,
    Distinct,
    Join,
    Limit,
    LogicalPlan,
    Mount,
    OutputSchema,
    Project,
    Scan,
    Select,
    SemiJoin,
    Sort,
    TopN,
    UnionAll,
)

ClassifyFn = Callable[[str], bool]  # table name -> is metadata table


# -- selection pushdown ------------------------------------------------------------


def push_down_selections(plan: LogicalPlan) -> LogicalPlan:
    """Sink selection conjuncts as far down the tree as their columns allow."""
    return _push(plan, [])


def _push(plan: LogicalPlan, pending: list[Expr]) -> LogicalPlan:
    """Rebuild ``plan`` with ``pending`` predicates applied as low as possible."""
    if isinstance(plan, Select):
        return _push(plan.child, pending + conjuncts(plan.predicate))
    if isinstance(plan, Join):
        available_left = set(plan.left.output_keys())
        available_right = set(plan.right.output_keys())
        left_preds: list[Expr] = []
        right_preds: list[Expr] = []
        join_preds: list[Expr] = list(
            conjuncts(plan.condition) if plan.condition is not None else []
        )
        for pred in pending:
            refs = pred.references()
            if refs <= available_left:
                left_preds.append(pred)
            elif refs <= available_right:
                right_preds.append(pred)
            else:
                join_preds.append(pred)
        # Join-condition conjuncts that turn out to be single-sided sink too.
        sunk_condition: list[Expr] = []
        for pred in join_preds:
            refs = pred.references()
            if refs <= available_left:
                left_preds.append(pred)
            elif refs <= available_right:
                right_preds.append(pred)
            else:
                sunk_condition.append(pred)
        left = _push(plan.left, left_preds)
        right = _push(plan.right, right_preds)
        return Join(left, right, conjoin(sunk_condition))
    if isinstance(plan, UnionAll):
        inputs = [_push(child, list(pending)) for child in plan.inputs]
        # Keep the declared schema: a zero-branch union (empty files of
        # interest) has no input to infer it from.
        return UnionAll(inputs, plan.declared_output or list(plan.output))
    if isinstance(plan, (Sort, Distinct)):
        # σ commutes with ordering and with duplicate elimination (both are
        # row-preserving on the filtered columns), so predicates keep sinking.
        # Keeping them above here would strand the fused predicate above the
        # eventual mounts, degrading selective mounting to full-file reads.
        child = _push(plan.children()[0], pending)
        return plan.with_children([child])
    if isinstance(plan, (Limit, TopN)):
        # Limit (and its fused TopN form) picks rows by position: filtering
        # before it changes *which* rows survive, so it is a hard barrier.
        child = _push(plan.children()[0], [])
        rebuilt = plan.with_children([child])
        return _apply_pending(rebuilt, pending)
    # Project, Aggregate, scans, access paths: stop sinking here.
    children = [_push(child, []) for child in plan.children()]
    rebuilt = plan.with_children(children) if children else plan
    return _apply_pending(rebuilt, pending)


def _apply_pending(plan: LogicalPlan, pending: list[Expr]) -> LogicalPlan:
    predicate = conjoin(pending)
    if predicate is None:
        return plan
    return Select(plan, predicate)


# -- metadata-first join reordering ----------------------------------------------


def _is_join_tree(plan: LogicalPlan) -> bool:
    return isinstance(plan, Join)


def _flatten_join_tree(
    plan: LogicalPlan,
) -> tuple[list[LogicalPlan], list[Expr]]:
    """Split a tree of inner joins into base relations and join predicates."""
    if isinstance(plan, Join):
        left_rels, left_preds = _flatten_join_tree(plan.left)
        right_rels, right_preds = _flatten_join_tree(plan.right)
        predicates = left_preds + right_preds
        if plan.condition is not None:
            predicates.extend(conjuncts(plan.condition))
        return left_rels + right_rels, predicates
    return [plan], []


def _is_metadata_relation(relation: LogicalPlan, classify: ClassifyFn) -> bool:
    """A relation is metadata when every Scan leaf is a metadata table."""
    scans = [node for node in relation.walk() if isinstance(node, Scan)]
    if not scans:
        return False
    return all(classify(scan.table_name) for scan in scans)


def metadata_first_join_order(
    plan: LogicalPlan, classify: ClassifyFn
) -> LogicalPlan:
    """Apply the paper's join reordering recursively over the plan.

    Joins between metadata tables are collected together and pushed down
    (made innermost) so that the highest metadata-only branch — the future
    ``Q_f`` — is as large as possible.
    """
    if _is_join_tree(plan):
        relations, predicates = _flatten_join_tree(plan)
        relations = [
            metadata_first_join_order_children(rel, classify) for rel in relations
        ]
        return _rebuild_right_deep(relations, predicates, classify)
    return metadata_first_join_order_children(plan, classify)


def metadata_first_join_order_children(
    plan: LogicalPlan, classify: ClassifyFn
) -> LogicalPlan:
    children = [metadata_first_join_order(c, classify) for c in plan.children()]
    return plan.with_children(children) if children else plan


def _rebuild_right_deep(
    relations: list[LogicalPlan],
    predicates: list[Expr],
    classify: ClassifyFn,
) -> LogicalPlan:
    """Rebuild ``a1 ⋈ (a2 ⋈ (… (m1 ⋈ (… ⋈ mx))))`` placing each predicate at
    the lowest join where its columns are all in scope."""
    metadata_rels = [r for r in relations if _is_metadata_relation(r, classify)]
    actual_rels = [r for r in relations if not _is_metadata_relation(r, classify)]
    ordered = actual_rels + metadata_rels  # innermost = last
    remaining = list(predicates)

    current = ordered[-1]
    available = set(current.output_keys())
    for relation in reversed(ordered[:-1]):
        available |= set(relation.output_keys())
        applicable = [p for p in remaining if p.references() <= available]
        remaining = [p for p in remaining if p not in applicable]
        current = Join(relation, current, conjoin(applicable))
    if remaining:
        # Predicates referencing columns outside the join tree (defensive).
        current = Select(current, conjoin(remaining))
    return current


# -- Top-N fusion -------------------------------------------------------------


def fuse_top_n(plan: LogicalPlan) -> LogicalPlan:
    """Fuse ``Limit(Sort(…))`` (optionally through a Project) into ``TopN``.

    The binder stacks ``Limit(Project(Sort(child)))`` for an
    ``ORDER BY … LIMIT k`` query. Project is 1:1 row-preserving, so the limit
    commutes with it, and the sort keys reference pre-projection columns and
    therefore stay valid directly on the sort's child. ``LIMIT 0`` is left
    alone: :class:`~repro.db.plan.physical.PLimit` short-circuits it without
    executing the child at all, which a TopN operator would not.
    """
    children = [fuse_top_n(child) for child in plan.children()]
    rebuilt = plan.with_children(children) if children else plan
    if not isinstance(rebuilt, Limit) or rebuilt.count <= 0:
        return rebuilt
    child = rebuilt.child
    if isinstance(child, Sort):
        return TopN(child.child, child.keys, rebuilt.count)
    if isinstance(child, Project) and isinstance(child.child, Sort):
        sort = child.child
        return Project(TopN(sort.child, sort.keys, rebuilt.count), child.items)
    return rebuilt


# -- cost-based join orientation ----------------------------------------------


def cost_based_join_order(
    plan: LogicalPlan,
    stats: "StatisticsCatalog",
    classify: ClassifyFn,
) -> LogicalPlan:
    """Orient each join so the estimated-smaller side is the hash build side.

    The hash join builds on its *right* input (``_match_codes`` addresses
    the right side's codes directly and probes left rows into them), so when
    cardinality estimates say the left side is smaller the join is flipped.
    Swaps only happen between sides with the same metadata classification:
    flipping an actual side past a metadata side would undo the paper's
    metadata-first ordering that stage decomposition cuts on.
    """
    children = [
        cost_based_join_order(child, stats, classify)
        for child in plan.children()
    ]
    rebuilt = plan.with_children(children) if children else plan
    if not isinstance(rebuilt, Join):
        return rebuilt
    left_meta = _is_metadata_relation(rebuilt.left, classify)
    right_meta = _is_metadata_relation(rebuilt.right, classify)
    if left_meta != right_meta:
        return rebuilt
    left_rows = stats.estimate_rows(rebuilt.left)
    right_rows = stats.estimate_rows(rebuilt.right)
    if left_rows < right_rows:
        return Join(rebuilt.right, rebuilt.left, rebuilt.condition)
    return rebuilt


# -- column pruning -----------------------------------------------------------


def prune_columns(plan: LogicalPlan) -> LogicalPlan:
    """Trim each node's output to the columns the plan above it reads.

    Scans, joins and the ALi access paths (Mount / CacheScan and their
    union) produce only what their consumers reference; a join's own
    condition is read inside it, not passed up. Run once at compile time
    and once more after rule (1), when a fused predicate has moved into the
    mounts and the columns only it reads can leave their outputs too.
    """
    return _prune(plan, set(plan.output_keys()))


def _kept(output: OutputSchema, required: set[str]) -> OutputSchema:
    """``output`` restricted to ``required`` — never to nothing, since even
    COUNT(*) needs some column to carry the row count."""
    kept = [(key, dtype) for key, dtype in output if key in required]
    return kept or list(output[:1])


def _prune(plan: LogicalPlan, required: set[str]) -> LogicalPlan:
    if isinstance(plan, Scan):
        return Scan(plan.table_name, plan.alias, _kept(plan.output, required))
    if isinstance(plan, (Mount, CacheScan)):
        return replace(plan, output=_kept(plan.output, required))
    if isinstance(plan, Select):
        child = _prune(plan.child, required | plan.predicate.references())
        return Select(child, plan.predicate)
    if isinstance(plan, Project):
        needed: set[str] = set()
        for _, expr in plan.items:
            needed |= expr.references()
        return Project(_prune(plan.child, needed), plan.items)
    if isinstance(plan, Join):
        needed = set(required)
        if plan.condition is not None:
            needed |= plan.condition.references()
        left_keys = set(plan.left.output_keys())
        right_keys = set(plan.right.output_keys())
        left = _prune(plan.left, needed & left_keys)
        right = _prune(plan.right, needed & right_keys)
        declared = _kept(list(left.output) + list(right.output), required)
        return Join(left, right, plan.condition, declared)
    if isinstance(plan, Aggregate):
        needed = set()
        for _, expr in plan.groups:
            needed |= expr.references()
        for spec in plan.aggs:
            if spec.arg is not None:
                needed |= spec.arg.references()
        if not needed and isinstance(plan.child, LogicalPlan):
            # COUNT(*) with no groups: child still must produce its row count.
            needed = set(plan.child.output_keys()[:1])
        return Aggregate(_prune(plan.child, needed), plan.groups, plan.aggs)
    if isinstance(plan, Sort):
        needed = set(required)
        for expr, _ in plan.keys:
            needed |= expr.references()
        return Sort(_prune(plan.child, needed), plan.keys)
    if isinstance(plan, TopN):
        needed = set(required)
        for expr, _ in plan.keys:
            needed |= expr.references()
        return TopN(_prune(plan.child, needed), plan.keys, plan.count)
    if isinstance(plan, (Limit, Distinct)):
        child = _prune(plan.children()[0], required)
        return plan.with_children([child])
    if isinstance(plan, SemiJoin):
        child = _prune(plan.child, required | plan.operand.references())
        subplan = _prune(plan.subplan, set(plan.subplan.output_keys()))
        return SemiJoin(child, plan.operand, subplan, plan.negated)
    if isinstance(plan, UnionAll):
        # Rule (1)'s union of per-file access paths narrows to what its
        # consumer reads; any other union keeps its declared schema. Either
        # way every branch is pruned to the union's keys, so branch outputs
        # stay aligned, and the declared schema keeps the zero-branch case
        # well-defined.
        output = list(plan.output)
        if all(isinstance(b, (Mount, CacheScan)) for b in plan.inputs):
            output = _kept(output, required)
        union_keys = {key for key, _ in output}
        inputs = [_prune(child, union_keys) for child in plan.inputs]
        return UnionAll(inputs, output)
    # A result-scan keeps the whole stage-1 result it re-reads.
    children = [
        _prune(child, set(child.output_keys())) for child in plan.children()
    ]
    return plan.with_children(children) if children else plan
