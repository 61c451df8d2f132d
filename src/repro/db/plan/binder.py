"""Name resolution: untyped SQL AST → typed logical plan.

The binder assigns every base-table column a *qualified key* of the form
``alias.column`` (lower case). All plan expressions reference columns by
those keys, so batches flowing through the executor are self-describing and
join outputs never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..catalog import Catalog
from ..errors import BindError
from ..expr import (
    Arithmetic,
    BoolOp,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Literal,
    LiteralSource,
    Negate,
    Not,
)
from ..sql.ast import (
    EBetween,
    EBinary,
    EColumn,
    EFunc,
    EIn,
    ELiteral,
    ENode,
    EStar,
    ESubqueryIn,
    EUnary,
    OrderItem,
    SelectStmt,
    TableRef,
)
from ..sql.parser import AGGREGATE_FUNCTIONS
from ..types import DataType
from .logical import (
    Aggregate,
    AggSpec,
    Distinct,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Scan,
    Select,
    SemiJoin,
    Sort,
)
from ..types import comparable


@dataclass
class Scope:
    """Visible column bindings at some point in the plan."""

    qualified: dict[str, DataType] = field(default_factory=dict)
    unqualified: dict[str, list[str]] = field(default_factory=dict)
    binding_order: list[tuple[str, list[tuple[str, DataType]]]] = field(
        default_factory=list
    )

    def add_binding(self, alias: str, columns: list[tuple[str, DataType]]) -> None:
        alias = alias.lower()
        self.binding_order.append((alias, columns))
        for name, dtype in columns:
            key = f"{alias}.{name.lower()}"
            self.qualified[key] = dtype
            self.unqualified.setdefault(name.lower(), []).append(key)

    def resolve(self, table: Optional[str], name: str) -> tuple[str, DataType]:
        if table is not None:
            key = f"{table.lower()}.{name.lower()}"
            dtype = self.qualified.get(key)
            if dtype is None:
                raise BindError(f"unknown column {table}.{name}")
            return key, dtype
        keys = self.unqualified.get(name.lower(), [])
        if not keys:
            raise BindError(f"unknown column {name}")
        if len(keys) > 1:
            raise BindError(
                f"ambiguous column {name}: could be any of {sorted(keys)}"
            )
        return keys[0], self.qualified[keys[0]]

    def columns_of(self, alias: str) -> list[tuple[str, DataType]]:
        alias = alias.lower()
        for bound_alias, columns in self.binding_order:
            if bound_alias == alias:
                return columns
        raise BindError(f"unknown table alias {alias}")


AggResolver = Callable[[ENode], Optional[Expr]]


def bind_scalar(
    node: ENode,
    scope: Scope,
    agg_resolver: Optional[AggResolver] = None,
    *,
    negating: bool = False,
) -> Expr:
    """Bind one expression AST into a typed :class:`Expr`.

    ``agg_resolver`` intercepts sub-ASTs that must map to aggregate outputs
    or group keys when binding above an Aggregate node. ``negating`` binds
    the operand of a unary minus: an integer literal is checked against the
    int64 range after the minus is folded in, so ``-9223372036854775808``
    binds.
    """
    if agg_resolver is not None:
        resolved = agg_resolver(node)
        if resolved is not None:
            return resolved
    if isinstance(node, ELiteral):
        source = None if node.token is None else LiteralSource(node.token)
        literal = Literal.infer(node.value, source)
        return literal if negating else literal.in_int64()
    if isinstance(node, EColumn):
        key, dtype = scope.resolve(node.table, node.name)
        return ColumnRef(key, dtype)
    if isinstance(node, EBinary):
        left = bind_scalar(node.left, scope, agg_resolver)
        right = bind_scalar(node.right, scope, agg_resolver)
        if node.op in ("and", "or"):
            return BoolOp(node.op, [left, right])
        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            return Comparison(node.op, left, right)
        return Arithmetic(node.op, left, right)
    if isinstance(node, EUnary):
        minus = node.op != "not"
        operand = bind_scalar(node.operand, scope, agg_resolver, negating=minus)
        if not minus:
            return Not(operand)
        if isinstance(operand, Literal) and operand.dtype.is_numeric:
            folded = operand.negated()
            return folded if negating else folded.in_int64()
        return Negate(operand)
    if isinstance(node, EBetween):
        operand = bind_scalar(node.operand, scope, agg_resolver)
        low = bind_scalar(node.low, scope, agg_resolver)
        high = bind_scalar(node.high, scope, agg_resolver)
        bound: Expr = BoolOp(
            "and",
            [Comparison(">=", operand, low), Comparison("<=", operand, high)],
        )
        return Not(bound) if node.negated else bound
    if isinstance(node, EIn):
        operand = bind_scalar(node.operand, scope, agg_resolver)
        comparisons: list[Expr] = [
            Comparison("=", operand, bind_scalar(item, scope, agg_resolver))
            for item in node.items
        ]
        bound = comparisons[0] if len(comparisons) == 1 else BoolOp("or", comparisons)
        return Not(bound) if node.negated else bound
    if isinstance(node, EFunc):
        if node.name in AGGREGATE_FUNCTIONS:
            raise BindError(
                f"aggregate {node.name.upper()} is not allowed in this context"
            )
        if len(node.args) != 1:
            raise BindError(f"{node.name} takes exactly one argument")
        return FuncCall(node.name, bind_scalar(node.args[0], scope, agg_resolver))
    if isinstance(node, EStar):
        raise BindError("* is only allowed in the select list")
    if isinstance(node, ESubqueryIn):
        raise BindError(
            "IN (SELECT ...) is only supported as a top-level WHERE conjunct"
        )
    raise BindError(f"cannot bind expression node {node!r}")


def rebind_literal(source: LiteralSource, value: Any) -> Literal:
    """The literal binding derives from a token of ``value`` written where
    ``source``'s token was, in a query of the same shape: the three steps
    that read a literal's value, repeated — its kind, the folded unary
    minus with the int64 check after it, and the timestamp coercion a
    comparison applies. Raises what binding would."""
    # A folded minus keeps the value's type: negate before inferring it.
    literal = Literal.infer(-value if source.negated else value, source)
    literal = literal.in_int64()
    return literal.as_timestamp() if source.timestamp else literal


def _contains_aggregate(node: ENode) -> bool:
    if isinstance(node, EFunc):
        if node.name in AGGREGATE_FUNCTIONS:
            return True
        return any(_contains_aggregate(arg) for arg in node.args)
    if isinstance(node, EBinary):
        return _contains_aggregate(node.left) or _contains_aggregate(node.right)
    if isinstance(node, EUnary):
        return _contains_aggregate(node.operand)
    if isinstance(node, EBetween):
        return any(
            _contains_aggregate(x) for x in (node.operand, node.low, node.high)
        )
    if isinstance(node, EIn):
        return _contains_aggregate(node.operand) or any(
            _contains_aggregate(item) for item in node.items
        )
    return False


def _agg_result_type(func: str, arg: Optional[Expr]) -> DataType:
    if func == "count":
        return DataType.INT64
    assert arg is not None
    if func == "avg":
        return DataType.FLOAT64
    if func == "sum":
        return DataType.FLOAT64 if arg.dtype is DataType.FLOAT64 else DataType.INT64
    # min / max keep their argument's type
    return arg.dtype


class _AggregationContext:
    """Collects group keys and aggregate specs while binding a grouped query."""

    def __init__(self, scope: Scope, group_asts: list[ENode]) -> None:
        self.scope = scope
        self.group_items: list[tuple[ENode, str, Expr]] = []
        self.aggs: list[AggSpec] = []
        self._agg_keys: dict[tuple, str] = {}
        for i, ast in enumerate(group_asts):
            expr = bind_scalar(ast, scope)
            if isinstance(expr, ColumnRef):
                key = expr.key
            else:
                key = f"group_{i}"
            self.group_items.append((ast, key, expr))

    def resolver(self) -> AggResolver:
        def resolve(node: ENode) -> Optional[Expr]:
            for ast, key, expr in self.group_items:
                if node == ast:
                    return ColumnRef(key, expr.dtype)
            if isinstance(node, EColumn):
                key_name, dtype = self.scope.resolve(node.table, node.name)
                for _, key, expr in self.group_items:
                    if key == key_name:
                        return ColumnRef(key, expr.dtype)
                raise BindError(
                    f"column {node.name} must appear in GROUP BY or an aggregate"
                )
            if isinstance(node, EFunc) and node.name in AGGREGATE_FUNCTIONS:
                return self._bind_aggregate(node)
            return None

        return resolve

    def _bind_aggregate(self, node: EFunc) -> Expr:
        if node.star:
            arg: Optional[Expr] = None
            signature = (node.name, "*", node.distinct)
        else:
            if len(node.args) != 1:
                raise BindError(f"{node.name} takes exactly one argument")
            arg = bind_scalar(node.args[0], self.scope)
            # Equal ASTs as well as equal reprs: which aggregates merge then
            # follows from which literals are equal (a kept plan's key), not
            # from what binding derives (-0 and 0 print alike).
            signature = (node.name, node.args[0], repr(arg), node.distinct)
        existing = self._agg_keys.get(signature)
        if existing is not None:
            spec = next(s for s in self.aggs if s.out_name == existing)
            return ColumnRef(existing, spec.dtype)
        out_name = f"agg_{len(self.aggs)}"
        dtype = _agg_result_type(node.name, arg)
        self.aggs.append(AggSpec(node.name, arg, out_name, node.distinct, dtype))
        self._agg_keys[signature] = out_name
        return ColumnRef(out_name, dtype)


def _output_name(node: ENode, alias: Optional[str], position: int) -> str:
    if alias:
        return alias.lower()
    if isinstance(node, EColumn):
        return node.name.lower()
    if isinstance(node, EFunc):
        return node.name.lower()
    return f"col{position}"


def _split_subquery_conjuncts(
    node: ENode,
) -> tuple[Optional[ENode], list[ESubqueryIn]]:
    """Separate top-level ``IN (SELECT ...)`` conjuncts from the rest of a
    WHERE expression."""
    if isinstance(node, ESubqueryIn):
        return None, [node]
    if isinstance(node, EBinary) and node.op == "and":
        left_plain, left_subs = _split_subquery_conjuncts(node.left)
        right_plain, right_subs = _split_subquery_conjuncts(node.right)
        if left_plain is None:
            plain = right_plain
        elif right_plain is None:
            plain = left_plain
        else:
            plain = EBinary("and", left_plain, right_plain)
        return plain, left_subs + right_subs
    return node, []


class Binder:
    """Binds SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def bind(self, stmt: SelectStmt) -> LogicalPlan:
        scope = Scope()
        plan = self._bind_from(stmt, scope)
        if stmt.where is not None:
            plain, subquery_tests = _split_subquery_conjuncts(stmt.where)
            if plain is not None:
                predicate = bind_scalar(plain, scope)
                if predicate.dtype is not DataType.BOOL:
                    raise BindError("WHERE predicate must be boolean")
                plan = Select(plan, predicate)
            for test in subquery_tests:
                plan = self._bind_subquery_in(plan, test, scope)

        aggregated = bool(stmt.group_by) or any(
            _contains_aggregate(item.expr)
            for item in stmt.items
            if not isinstance(item.expr, EStar)
        ) or (stmt.having is not None)

        agg_resolver: Optional[AggResolver] = None
        if aggregated:
            context = _AggregationContext(scope, stmt.group_by)
            agg_resolver = context.resolver()
            items = self._bind_items(stmt, scope, agg_resolver)
            having_expr = None
            if stmt.having is not None:
                having_expr = bind_scalar(stmt.having, scope, agg_resolver)
                if having_expr.dtype is not DataType.BOOL:
                    raise BindError("HAVING predicate must be boolean")
            order_keys = self._bind_order(stmt, scope, agg_resolver, items)
            plan = Aggregate(
                plan,
                [(key, expr) for _, key, expr in context.group_items],
                context.aggs,
            )
            if having_expr is not None:
                plan = Select(plan, having_expr)
        else:
            items = self._bind_items(stmt, scope, None)
            order_keys = self._bind_order(stmt, scope, None, items)

        if order_keys:
            plan = Sort(plan, order_keys)
        plan = Project(plan, items)
        if stmt.distinct:
            plan = Distinct(plan)
        if stmt.limit is not None:
            # The parser already rejects a negative literal; this guards
            # programmatically built statements. LIMIT 0 is a legal empty
            # result carrying the query's schema.
            if stmt.limit < 0:
                raise BindError(
                    f"LIMIT must be a non-negative integer, got {stmt.limit}"
                )
            plan = Limit(plan, stmt.limit)
        return plan

    def _bind_subquery_in(
        self, plan: LogicalPlan, test: ESubqueryIn, scope: Scope
    ) -> SemiJoin:
        operand = bind_scalar(test.operand, scope)
        subplan = Binder(self.catalog).bind(test.subquery)
        if len(subplan.output) != 1:
            raise BindError(
                "IN subquery must select exactly one column, got "
                f"{len(subplan.output)}"
            )
        sub_dtype = subplan.output[0][1]
        if not comparable(operand.dtype, sub_dtype):
            raise BindError(
                f"cannot test {operand.dtype.value} membership in a "
                f"{sub_dtype.value} subquery"
            )
        return SemiJoin(plan, operand, subplan, test.negated)

    # -- FROM clause ------------------------------------------------------------

    def _make_scan(self, ref: TableRef, scope: Scope) -> Scan:
        table = self.catalog.table(ref.name)
        alias = ref.binding
        if any(alias == bound for bound, _ in scope.binding_order):
            raise BindError(f"duplicate table alias {alias!r}")
        columns = [
            (col.name.lower(), col.dtype) for col in table.schema.columns
        ]
        scope.add_binding(alias, columns)
        output = [
            (f"{alias}.{name}", dtype) for name, dtype in columns
        ]
        return Scan(table.schema.name, alias, output)

    def _bind_from(self, stmt: SelectStmt, scope: Scope) -> LogicalPlan:
        if not stmt.from_tables:
            raise BindError("FROM clause is required")
        plan: LogicalPlan = self._make_scan(stmt.from_tables[0], scope)
        for ref in stmt.from_tables[1:]:
            scan = self._make_scan(ref, scope)
            plan = Join(plan, scan, None)
        for join in stmt.joins:
            scan = self._make_scan(join.table, scope)
            condition = None
            if join.condition is not None:
                condition = bind_scalar(join.condition, scope)
                if condition.dtype is not DataType.BOOL:
                    raise BindError("JOIN condition must be boolean")
            plan = Join(plan, scan, condition)
        return plan

    # -- select list ---------------------------------------------------------

    def _bind_items(
        self,
        stmt: SelectStmt,
        scope: Scope,
        agg_resolver: Optional[AggResolver],
    ) -> list[tuple[str, Expr]]:
        items: list[tuple[str, Expr]] = []
        for position, item in enumerate(stmt.items):
            if isinstance(item.expr, EStar):
                items.extend(self._expand_star(item.expr, scope, agg_resolver))
                continue
            bound = bind_scalar(item.expr, scope, agg_resolver)
            items.append((_output_name(item.expr, item.alias, position), bound))
        # Disambiguate duplicate output names deterministically.
        seen: dict[str, int] = {}
        unique: list[tuple[str, Expr]] = []
        for name, expr in items:
            count = seen.get(name, 0)
            seen[name] = count + 1
            unique.append((name if count == 0 else f"{name}_{count}", expr))
        return unique

    def _expand_star(
        self,
        star: EStar,
        scope: Scope,
        agg_resolver: Optional[AggResolver],
    ) -> list[tuple[str, Expr]]:
        if agg_resolver is not None:
            raise BindError("* cannot be combined with GROUP BY or aggregates")
        bindings = scope.binding_order
        if star.table is not None:
            bindings = [(star.table.lower(), scope.columns_of(star.table))]
        multiple = len(bindings) > 1
        expanded: list[tuple[str, Expr]] = []
        for alias, columns in bindings:
            for name, dtype in columns:
                key = f"{alias}.{name}"
                ambiguous = multiple and len(scope.unqualified.get(name, [])) > 1
                out = f"{alias}.{name}" if ambiguous else name
                expanded.append((out, ColumnRef(key, dtype)))
        return expanded

    # -- ORDER BY ----------------------------------------------------------------

    def _bind_order(
        self,
        stmt: SelectStmt,
        scope: Scope,
        agg_resolver: Optional[AggResolver],
        items: list[tuple[str, Expr]],
    ) -> list[tuple[Expr, bool]]:
        keys: list[tuple[Expr, bool]] = []
        by_alias = {name: expr for name, expr in items}
        for order in stmt.order_by:
            expr = self._bind_order_expr(order, scope, agg_resolver, by_alias)
            keys.append((expr, order.ascending))
        return keys

    def _bind_order_expr(
        self,
        order: OrderItem,
        scope: Scope,
        agg_resolver: Optional[AggResolver],
        by_alias: dict[str, Expr],
    ) -> Expr:
        node = order.expr
        if isinstance(node, EColumn) and node.table is None:
            alias_match = by_alias.get(node.name.lower())
            if alias_match is not None:
                return alias_match
        return bind_scalar(node, scope, agg_resolver)
