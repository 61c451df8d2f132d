"""Relational algebra plan nodes.

Besides the classic operators, this module defines the paper's three extra
access paths (§3 "Access Paths"):

* :class:`ResultScan` — re-reads the materialized result of a sub-plan
  (used to feed the stage-1 result ``Q_f`` into ``Q_s``),
* :class:`CacheScan` — reads a previously ingested file from the cache,
* :class:`Mount` — automated lazy ingestion of one external file as a
  dangling partial table, optionally fused with a selection (the paper's
  "combined selections with mounts" access path).

Every node knows its output schema as a list of ``(qualified_key, DataType)``
pairs; qualified keys are ``alias.column`` strings assigned by the binder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..expr import Expr
from ..types import DataType

OutputSchema = list[tuple[str, DataType]]


class LogicalPlan:
    """Base class for logical plan nodes."""

    output: OutputSchema

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        """Rebuild this node with new children (rewrite-rule plumbing)."""
        raise NotImplementedError

    def output_keys(self) -> list[str]:
        return [key for key, _ in self.output]

    # -- pretty printing -----------------------------------------------------

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0, mark: Optional["LogicalPlan"] = None) -> str:
        """Render the plan tree; the subtree rooted at ``mark`` (the metadata
        branch ``Q_f``) is tagged with ``*`` the way the paper bold-faces it."""
        tag = " [Qf]" if self is mark else ""
        lines = ["  " * indent + self.label() + tag]
        for child in self.children():
            lines.append(child.explain(indent + 1, mark))
        return "\n".join(lines)

    def walk(self) -> Iterator["LogicalPlan"]:
        """Yield every node in the subtree, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(eq=False)
class Scan(LogicalPlan):
    """Full scan of a base table, binding its columns under ``alias.*``."""

    table_name: str
    alias: str
    output: OutputSchema

    def with_children(self, children: Sequence[LogicalPlan]) -> "Scan":
        assert not children
        return self

    def label(self) -> str:
        if self.alias != self.table_name.lower():
            return f"Scan({self.table_name} AS {self.alias})"
        return f"Scan({self.table_name})"


@dataclass(eq=False)
class Select(LogicalPlan):
    """σ — filter rows by a boolean predicate."""

    child: LogicalPlan
    predicate: Expr

    def __post_init__(self) -> None:
        self.output = self.child.output

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def label(self) -> str:
        return f"Select[{self.predicate!r}]"


@dataclass(eq=False)
class Project(LogicalPlan):
    """π — compute named output expressions."""

    child: LogicalPlan
    items: list[tuple[str, Expr]]  # (output name, expression)

    def __post_init__(self) -> None:
        self.output = [(name.lower(), expr.dtype) for name, expr in self.items]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        return Project(child, self.items)

    def label(self) -> str:
        cols = ", ".join(name for name, _ in self.items)
        return f"Project[{cols}]"


@dataclass(eq=False)
class Join(LogicalPlan):
    """⋈ — inner join; ``condition`` None means a cartesian product.

    The output is both sides' columns, left then right, unless
    ``declared_output`` names the subset (same order) the plan above reads:
    column pruning records it, so the join materializes only those.
    """

    left: LogicalPlan
    right: LogicalPlan
    condition: Optional[Expr]
    declared_output: Optional[OutputSchema] = None

    def __post_init__(self) -> None:
        if self.declared_output is not None:
            self.output = list(self.declared_output)
        else:
            self.output = list(self.left.output) + list(self.right.output)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        return Join(left, right, self.condition, self.declared_output)

    def label(self) -> str:
        if self.condition is None:
            return "CrossProduct"
        return f"Join[{self.condition!r}]"


@dataclass(eq=False)
class AggSpec:
    """One aggregate computation: ``func(arg) AS out_name``."""

    func: str  # avg | sum | min | max | count
    arg: Optional[Expr]  # None for COUNT(*)
    out_name: str
    distinct: bool = False
    dtype: DataType = DataType.FLOAT64

    def label(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func.upper()}({prefix}{inner})"


@dataclass(eq=False)
class Aggregate(LogicalPlan):
    """γ — grouped aggregation. Empty ``groups`` = scalar aggregation."""

    child: LogicalPlan
    groups: list[tuple[str, Expr]]  # (output key, expression)
    aggs: list[AggSpec]

    def __post_init__(self) -> None:
        self.output = [(name.lower(), expr.dtype) for name, expr in self.groups]
        self.output += [(spec.out_name.lower(), spec.dtype) for spec in self.aggs]

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.groups, self.aggs)

    def label(self) -> str:
        parts = [name for name, _ in self.groups]
        parts += [spec.label() for spec in self.aggs]
        return f"Aggregate[{', '.join(parts)}]"


@dataclass(eq=False)
class Sort(LogicalPlan):
    """Order rows by one or more key expressions."""

    child: LogicalPlan
    keys: list[tuple[Expr, bool]]  # (expression, ascending)

    def __post_init__(self) -> None:
        self.output = self.child.output

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)

    def label(self) -> str:
        keys = ", ".join(
            f"{expr!r} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        return f"Sort[{keys}]"


@dataclass(eq=False)
class Limit(LogicalPlan):
    """Keep the first ``count`` rows."""

    child: LogicalPlan
    count: int

    def __post_init__(self) -> None:
        self.output = self.child.output

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Limit":
        (child,) = children
        return Limit(child, self.count)

    def label(self) -> str:
        return f"Limit[{self.count}]"


@dataclass(eq=False)
class TopN(LogicalPlan):
    """Fused Sort + Limit: the ``count`` first rows of the sorted child.

    Produced by the ``fuse-top-n`` optimizer pass from ``Limit(Sort(...))``
    shapes (possibly through a projection). Carrying both the keys and the
    count in one node is what lets the physical layer run a bounded-memory
    heap selection and lets the executor terminate union branches early once
    the current threshold proves a branch's time hull cannot contribute.
    """

    child: LogicalPlan
    keys: list[tuple[Expr, bool]]  # (expression, ascending)
    count: int

    def __post_init__(self) -> None:
        self.output = self.child.output

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "TopN":
        (child,) = children
        return TopN(child, self.keys, self.count)

    def label(self) -> str:
        keys = ", ".join(
            f"{expr!r} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        return f"TopN[{keys}, limit={self.count}]"


@dataclass(eq=False)
class Distinct(LogicalPlan):
    """Drop duplicate rows, keeping first occurrences (stable)."""

    child: LogicalPlan

    def __post_init__(self) -> None:
        self.output = self.child.output

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Distinct":
        (child,) = children
        return Distinct(child)


@dataclass(eq=False)
class UnionAll(LogicalPlan):
    """Bag union of children with identical output schemas.

    ``declared_output`` keeps the schema well-defined even with zero inputs
    (an empty files-of-interest set rewrites an actual scan into an empty
    union — the paper's best case, where nothing is ever ingested).
    """

    inputs: list[LogicalPlan]
    declared_output: Optional[OutputSchema] = None

    def __post_init__(self) -> None:
        if self.declared_output is not None:
            self.output = list(self.declared_output)
        elif self.inputs:
            self.output = self.inputs[0].output
        else:
            raise ValueError("UnionAll with no inputs requires declared_output")

    def children(self) -> tuple[LogicalPlan, ...]:
        return tuple(self.inputs)

    def with_children(self, children: Sequence[LogicalPlan]) -> "UnionAll":
        return UnionAll(list(children), self.declared_output or self.output)

    def label(self) -> str:
        return f"UnionAll[{len(self.inputs)}]"


@dataclass(eq=False)
class SemiJoin(LogicalPlan):
    """⋉ — keep child rows whose ``operand`` value appears in (or, negated,
    is absent from) the single-column result of an uncorrelated sub-plan.

    The lowering target for ``expr [NOT] IN (SELECT ...)``.
    """

    child: LogicalPlan
    operand: Expr
    subplan: LogicalPlan
    negated: bool = False

    def __post_init__(self) -> None:
        self.output = self.child.output

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child, self.subplan)

    def with_children(self, children: Sequence[LogicalPlan]) -> "SemiJoin":
        child, subplan = children
        return SemiJoin(child, self.operand, subplan, self.negated)

    def label(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"SemiJoin[{self.operand!r} {op} (subquery)]"


# -- the paper's access paths -------------------------------------------------


@dataclass(eq=False)
class ResultScan(LogicalPlan):
    """Access the materialized result of a previously executed sub-plan.

    The executor stores stage-1 results in its run context under ``tag``.
    """

    tag: str
    output: OutputSchema

    def with_children(self, children: Sequence[LogicalPlan]) -> "ResultScan":
        assert not children
        return self

    def label(self) -> str:
        return f"ResultScan[{self.tag}]"


@dataclass(eq=False)
class CacheScan(LogicalPlan):
    """Read one file's previously ingested tuples from the ingestion cache.

    ``predicate`` non-None is the fused "combined selection with cache-scan"
    access path; with a tuple-granular cache it enables tuple-level reuse.
    """

    uri: str
    table_name: str
    alias: str
    output: OutputSchema
    predicate: Optional[Expr] = None
    # The branch's pruning interval: the closed [lo, hi] µs interval the
    # fused predicate implies on ``interval_column`` (None = whole file).
    # Selective mounting and interval-granular cache lookups key off it;
    # the plan verifier checks it covers the predicate's hull.
    interval: Optional[tuple[int, int]] = None
    interval_column: Optional[str] = None  # unqualified time column name

    def with_children(self, children: Sequence[LogicalPlan]) -> "CacheScan":
        assert not children
        return self

    def label(self) -> str:
        suffix = f" σ[{self.predicate!r}]" if self.predicate is not None else ""
        return f"CacheScan[{self.uri}]{suffix}"


@dataclass(eq=False)
class Mount(LogicalPlan):
    """Automated lazy ingestion of one external file (the ALi access path).

    Extracts, transforms to the actual-data table's schema, and exposes the
    file's tuples as a dangling partial table for the duration of the query.
    ``predicate`` non-None is the fused "combined selection with mount" path.
    """

    uri: str
    table_name: str
    alias: str
    output: OutputSchema
    predicate: Optional[Expr] = None
    # Pruning interval + time column, same semantics as CacheScan's: records
    # outside it may be skipped at extraction, so the verifier demands it be
    # no narrower than the fused predicate's hull.
    interval: Optional[tuple[int, int]] = None
    interval_column: Optional[str] = None

    def with_children(self, children: Sequence[LogicalPlan]) -> "Mount":
        assert not children
        return self

    def label(self) -> str:
        suffix = f" σ[{self.predicate!r}]" if self.predicate is not None else ""
        return f"Mount[{self.uri}]{suffix}"
