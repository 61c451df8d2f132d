"""Untyped SQL AST produced by the parser and consumed by the binder."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


# -- expressions -----------------------------------------------------------


class ENode:
    """Base class for untyped expression AST nodes."""


@dataclass(frozen=True)
class EColumn(ENode):
    """A (possibly qualified) column reference: ``D.sample_value`` or ``uri``."""

    table: Optional[str]
    name: str


@dataclass(frozen=True)
class ELiteral(ENode):
    """A literal: number, string, or boolean. ``token`` is the index of the
    token it was written as (None for ``TRUE`` / ``FALSE`` and literals
    built in code); it takes no part in equality."""

    value: Any
    token: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class EBinary(ENode):
    """Binary operator: comparisons, AND/OR, arithmetic."""

    op: str
    left: ENode
    right: ENode


@dataclass(frozen=True)
class EUnary(ENode):
    """Unary operator: NOT or unary minus."""

    op: str
    operand: ENode


@dataclass(frozen=True)
class EFunc(ENode):
    """Function call — aggregate or scalar. ``COUNT(*)`` sets ``star``."""

    name: str
    args: tuple[ENode, ...]
    star: bool = False
    distinct: bool = False


@dataclass(frozen=True)
class EBetween(ENode):
    """``expr BETWEEN low AND high`` (inclusive)."""

    operand: ENode
    low: ENode
    high: ENode
    negated: bool = False


@dataclass(frozen=True)
class EIn(ENode):
    """``expr IN (v1, v2, ...)`` over literal lists."""

    operand: ENode
    items: tuple[ENode, ...]
    negated: bool = False


@dataclass(frozen=True)
class EStar(ENode):
    """``*`` or ``alias.*`` in a select list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class ESubqueryIn(ENode):
    """``expr [NOT] IN (SELECT ...)`` — an uncorrelated subquery membership
    test, lowered by the binder to a semi-join."""

    operand: ENode
    subquery: "SelectStmt"
    negated: bool = False


# -- statement structure -----------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: an expression with an optional alias."""

    expr: ENode
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A base table reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return (self.alias or self.name).lower()


@dataclass(frozen=True)
class JoinClause:
    """``JOIN <table> ON <cond>`` attached to the preceding from-item."""

    table: TableRef
    condition: Optional[ENode]  # None for CROSS JOIN


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: ENode
    ascending: bool = True


@dataclass
class SelectStmt:
    """A parsed SELECT statement."""

    items: list[SelectItem]
    from_tables: list[TableRef]
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[ENode] = None
    group_by: list[ENode] = field(default_factory=list)
    having: Optional[ENode] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
