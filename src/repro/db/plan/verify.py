"""Structural plan verification — machine-checked invariants per pass.

Every rewrite pass in the optimizer pipeline (and the run-time ALi rewrite,
see :mod:`repro.core.verify`) is expected to preserve a small set of
invariants; this module checks them and raises
:class:`~repro.db.errors.PlanInvariantError` naming the offending pass and
node when one is violated:

* **column resolution** — every column an expression references is produced
  by the node's children (a pushed-down selection, for example, may only
  reference columns available at its new position),
* **type consistency** — a :class:`~repro.db.expr.ColumnRef`'s declared type
  matches the type the child schema assigns that key,
* **schema shape** — node outputs are well-formed ``(key, DataType)`` lists
  with no duplicate keys, structural nodes (Select/Sort/Limit/Distinct)
  pass their child schema through unchanged, and a Join outputs a subset
  of its two sides' columns, in their order,
* **union alignment** — every :class:`~repro.db.plan.logical.UnionAll`
  branch produces exactly the union's declared schema (rule (1)'s per-file
  branches must agree before they are concatenated),
* **access-path locality** — a fused Mount/CacheScan predicate references
  only the mounted file's own alias,
* **interval covering** — a Mount/CacheScan pruning interval must be no
  narrower than the hull its fused predicate implies on the time column
  (selective mounting skips records outside the interval, so a narrower one
  would silently drop admissible rows),
* **pass-level schema preservation** — a rewrite pass must not change the
  (key → type) mapping of the plan root (:func:`verify_pass`),
* **lowering fidelity** — the physical operator tree produces exactly the
  logical root's output keys (:func:`verify_physical`).

Verification is opt-in via the ``verify_plans`` flag on
:class:`~repro.db.database.Database` / the two-stage executors / the CLI's
``--verify-plans``; the ``REPRO_VERIFY_PLANS`` environment variable flips
the default (CI runs the whole test suite with it on).
"""

from __future__ import annotations

import os

from ..errors import PlanInvariantError
from ..expr import ColumnRef, Expr
from ..interval import covers, interval_from_predicate
from ..types import DataType
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

ENV_FLAG = "REPRO_VERIFY_PLANS"


def verify_enabled_default() -> bool:
    """Whether plan verification defaults to on (``REPRO_VERIFY_PLANS``)."""
    value = os.environ.get(ENV_FLAG, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


# -- expression checks ---------------------------------------------------------


def _walk_expr(expr: Expr):
    yield expr
    for child in expr.children():
        yield from _walk_expr(child)


def _check_expr(
    expr: Expr,
    scope: dict[str, DataType],
    pass_name: str,
    node: LogicalPlan,
    role: str,
) -> None:
    """Every ColumnRef in ``expr`` must resolve in ``scope`` with its type."""
    for part in _walk_expr(expr):
        if not isinstance(part, ColumnRef):
            continue
        produced = scope.get(part.key)
        if produced is None:
            raise PlanInvariantError(
                pass_name,
                f"{role} references column {part.key!r} which no child "
                f"produces (available: {sorted(scope)})",
                node,
            )
        if produced is not part.dtype:
            raise PlanInvariantError(
                pass_name,
                f"{role} references {part.key!r} as {part.dtype.value} but "
                f"the child schema declares {produced.value}",
                node,
            )


def _scope_of(*schemas: OutputSchema) -> dict[str, DataType]:
    scope: dict[str, DataType] = {}
    for schema in schemas:
        for key, dtype in schema:
            scope[key] = dtype
    return scope


# -- node checks -------------------------------------------------------------


def _check_output_shape(node: LogicalPlan, pass_name: str) -> None:
    output = getattr(node, "output", None)
    if not isinstance(output, list) or not output:
        raise PlanInvariantError(
            pass_name, "node has no output schema", node
        )
    seen: set[str] = set()
    for entry in output:
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], DataType)
        ):
            raise PlanInvariantError(
                pass_name,
                f"malformed output entry {entry!r} (want (key, DataType))",
                node,
            )
        key = entry[0]
        if key in seen:
            raise PlanInvariantError(
                pass_name, f"duplicate output key {key!r}", node
            )
        seen.add(key)


def _require_same_schema(
    node: LogicalPlan,
    actual: OutputSchema,
    expected: OutputSchema,
    pass_name: str,
    what: str,
) -> None:
    if list(actual) != list(expected):
        raise PlanInvariantError(
            pass_name,
            f"{what}: schema {_fmt(actual)} != expected {_fmt(expected)}",
            node,
        )


def _fmt(schema: OutputSchema) -> str:
    return "[" + ", ".join(f"{k}:{t.value}" for k, t in schema) + "]"


def _check_node(node: LogicalPlan, pass_name: str) -> None:
    for child in node.children():
        _check_node(child, pass_name)
    _check_output_shape(node, pass_name)

    if isinstance(node, Select):
        scope = _scope_of(node.child.output)
        _check_expr(node.predicate, scope, pass_name, node, "selection")
        if node.predicate.dtype is not DataType.BOOL:
            raise PlanInvariantError(
                pass_name,
                f"selection predicate has type {node.predicate.dtype.value}, "
                "expected bool",
                node,
            )
        _require_same_schema(
            node, node.output, node.child.output, pass_name,
            "Select must pass its child schema through",
        )
    elif isinstance(node, Project):
        scope = _scope_of(node.child.output)
        for name, expr in node.items:
            _check_expr(expr, scope, pass_name, node, f"projection {name!r}")
    elif isinstance(node, Join):
        left, right = node.left.output, node.right.output
        overlap = {k for k, _ in left} & {k for k, _ in right}
        if overlap:
            raise PlanInvariantError(
                pass_name,
                f"join sides both produce {sorted(overlap)}",
                node,
            )
        if node.condition is not None:
            _check_expr(
                node.condition, _scope_of(left, right), pass_name, node,
                "join condition",
            )
            if node.condition.dtype is not DataType.BOOL:
                raise PlanInvariantError(
                    pass_name, "join condition must be boolean", node
                )
        both = list(left) + list(right)
        kept = [entry for entry in both if entry in node.output]
        _require_same_schema(
            node, node.output, kept, pass_name,
            "Join output must be a subset of left schema + right schema, "
            "in that order",
        )
    elif isinstance(node, Aggregate):
        scope = _scope_of(node.child.output)
        for name, expr in node.groups:
            _check_expr(expr, scope, pass_name, node, f"group key {name!r}")
        for spec in node.aggs:
            if spec.arg is not None:
                _check_expr(
                    spec.arg, scope, pass_name, node,
                    f"aggregate {spec.label()}",
                )
    elif isinstance(node, Sort):
        scope = _scope_of(node.child.output)
        for expr, _asc in node.keys:
            _check_expr(expr, scope, pass_name, node, "sort key")
        _require_same_schema(
            node, node.output, node.child.output, pass_name,
            "Sort must pass its child schema through",
        )
    elif isinstance(node, TopN):
        scope = _scope_of(node.child.output)
        for expr, _asc in node.keys:
            _check_expr(expr, scope, pass_name, node, "top-n key")
        if not node.keys:
            raise PlanInvariantError(
                pass_name, "TopN requires at least one sort key", node
            )
        if node.count < 0:
            raise PlanInvariantError(
                pass_name, f"TopN count must be >= 0, got {node.count}", node
            )
        _require_same_schema(
            node, node.output, node.child.output, pass_name,
            "TopN must pass its child schema through",
        )
    elif isinstance(node, (Limit, Distinct)):
        (child,) = node.children()
        if isinstance(node, Limit) and node.count < 0:
            raise PlanInvariantError(
                pass_name, f"Limit count must be >= 0, got {node.count}", node
            )
        _require_same_schema(
            node, node.output, child.output, pass_name,
            f"{type(node).__name__} must pass its child schema through",
        )
    elif isinstance(node, SemiJoin):
        scope = _scope_of(node.child.output)
        _check_expr(node.operand, scope, pass_name, node, "semi-join operand")
        if len(node.subplan.output) != 1:
            raise PlanInvariantError(
                pass_name,
                "semi-join subplan must produce exactly one column, got "
                f"{len(node.subplan.output)}",
                node,
            )
        _require_same_schema(
            node, node.output, node.child.output, pass_name,
            "SemiJoin must pass its child schema through",
        )
    elif isinstance(node, UnionAll):
        for i, branch in enumerate(node.inputs):
            _require_same_schema(
                node, branch.output, node.output, pass_name,
                f"union branch {i} schema drifted from the union's",
            )
    elif isinstance(node, (Mount, CacheScan)):
        if node.predicate is not None:
            prefix = f"{node.alias}."
            for part in _walk_expr(node.predicate):
                if isinstance(part, ColumnRef) and not part.key.startswith(prefix):
                    raise PlanInvariantError(
                        pass_name,
                        f"fused predicate references {part.key!r}, outside "
                        f"the mounted file's alias {node.alias!r}",
                        node,
                    )
            if node.predicate.dtype is not DataType.BOOL:
                raise PlanInvariantError(
                    pass_name, "fused predicate must be boolean", node
                )
        if node.interval is not None:
            # Selective mounting skips records outside the pruning interval,
            # so an interval narrower than the fused predicate's hull would
            # silently drop rows the query is entitled to. The hull is
            # recomputed here, independently of the rewrite that attached it.
            if node.interval_column is None:
                raise PlanInvariantError(
                    pass_name,
                    "pruning interval set without interval_column",
                    node,
                )
            hull = interval_from_predicate(
                node.predicate, f"{node.alias}.{node.interval_column}"
            )
            if not covers(node.interval, hull):
                raise PlanInvariantError(
                    pass_name,
                    f"pruning interval {node.interval} is narrower than the "
                    f"fused predicate's hull {hull}: selective extraction "
                    "would skip records the predicate admits",
                    node,
                )
    elif isinstance(node, (Scan, ResultScan)):
        pass  # output-shape check above is all a leaf needs
    # Unknown node types: structural checks above still apply to children.


def verify_plan(plan: LogicalPlan, pass_name: str) -> LogicalPlan:
    """Check every structural invariant of ``plan``; returns it unchanged.

    Raises :class:`~repro.db.errors.PlanInvariantError` naming ``pass_name``
    and the offending node on the first violation.
    """
    _check_node(plan, pass_name)
    return plan


def verify_pass(
    before: LogicalPlan, after: LogicalPlan, pass_name: str
) -> LogicalPlan:
    """Check ``after`` structurally *and* that the pass preserved the root
    schema: same keys mapped to the same types (order may change below a
    projection, e.g. join reordering; the key→type mapping may not).
    """
    verify_plan(after, pass_name)
    before_map = _scope_of(before.output)
    after_map = _scope_of(after.output)
    if before_map != after_map:
        raise PlanInvariantError(
            pass_name,
            "pass changed the plan's output schema: "
            f"{_fmt(before.output)} -> {_fmt(after.output)}",
            after,
        )
    return after


# -- physical lowering ---------------------------------------------------------


def physical_output_keys(op: PhysicalOp) -> list[str]:
    """The qualified keys the physical operator's result batch carries."""
    if isinstance(op, (PTableScan, PIndexScan)):
        return [key for _, key, _ in op.columns]
    if isinstance(op, (PFilter, PSort, PLimit, PDistinct)):
        return physical_output_keys(op.child)
    if isinstance(op, PTopN):
        return list(op.output_names)
    if isinstance(op, PProject):
        return [name for name, _ in op.items]
    if isinstance(op, (PHashJoin, PNestedLoopJoin)):
        inputs = physical_output_keys(op.left) + physical_output_keys(op.right)
        return _join_output(op, inputs)
    if isinstance(op, PIndexJoin):
        stored = [key for _, key, _ in op.stored_columns]
        return _join_output(op, physical_output_keys(op.probe) + stored)
    if isinstance(op, PSemiJoin):
        return physical_output_keys(op.child)
    if isinstance(op, PAggregate):
        keys = [name for name, _ in op.groups]
        keys += [spec.out_name for spec in op.aggs]
        return keys
    if isinstance(op, PUnionAll):
        return list(op.output_names)
    if isinstance(op, PResultScan):
        return list(op.expected_keys)
    if isinstance(op, (PMount, PCacheScan)):
        return list(op.output_names)
    raise PlanInvariantError(
        "physical-lowering",
        f"unknown physical operator {type(op).__name__}",
        op,
    )


def _join_output(
    op: PHashJoin | PNestedLoopJoin | PIndexJoin, inputs: list[str]
) -> list[str]:
    """A join's declared output, which its inputs must all produce."""
    missing = [key for key in op.output_names if key not in inputs]
    if missing:
        raise PlanInvariantError(
            "physical-lowering",
            f"join outputs {missing}, which neither input produces",
            op,
        )
    return list(op.output_names)


def verify_physical(
    physical: PhysicalOp,
    logical: LogicalPlan,
    pass_name: str = "physical-lowering",
) -> PhysicalOp:
    """The lowered operator tree must produce exactly the logical output."""
    produced = physical_output_keys(physical)
    expected = logical.output_keys()
    if produced != expected:
        raise PlanInvariantError(
            pass_name,
            f"physical plan produces {produced}, logical plan declares "
            f"{expected}",
            physical,
        )
    return physical
