"""Scalar expressions: typed AST nodes with vectorized evaluation.

Expressions reference columns by *qualified key* (``alias.column``, lower
case); the binder guarantees every batch flowing through a plan carries its
columns under those keys. Evaluation is columnar: each node maps a
:class:`ColumnBatch` to a :class:`Column` using numpy kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .column import Column
from .errors import TypeError_
from .table import ColumnBatch
from .types import (
    DataType,
    common_numeric_type,
    comparable,
    looks_like_timestamp,
    parse_timestamp,
)


class Expr:
    """Base class for scalar expression nodes."""

    dtype: DataType

    def evaluate(self, batch: ColumnBatch) -> Column:
        """The expression's value on every row of ``batch``."""

    def references(self) -> set[str]:
        """The qualified column keys this expression reads."""

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True, eq=False)
class ColumnRef(Expr):
    """A reference to a column by qualified key."""

    key: str
    dtype: DataType

    def evaluate(self, batch: ColumnBatch) -> Column:
        # An expression reads stored values: a run-encoded column is
        # materialized here, where the plan reads it.
        return batch.column(self.key).materialize()

    def references(self) -> set[str]:
        return {self.key}

    def __repr__(self) -> str:
        return self.key


@dataclass(frozen=True)
class LiteralSource:
    """Where a literal's value came from: the index of the SQL token it was
    written as, and how binding derived the value from that token's — an
    odd number of folded unary minuses, a string read as a timestamp."""

    token: int
    negated: bool = False
    timestamp: bool = False


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True, eq=False)
class Literal(Expr):
    """A constant value; ``source`` is set when it came from a SQL token."""

    value: Any
    dtype: DataType
    source: Optional[LiteralSource] = field(default=None)

    @classmethod
    def infer(
        cls, value: Any, source: Optional[LiteralSource] = None
    ) -> "Literal":
        if isinstance(value, bool):
            return cls(value, DataType.BOOL, source)
        if isinstance(value, int):
            return cls(value, DataType.INT64, source)
        if isinstance(value, float):
            return cls(value, DataType.FLOAT64, source)
        if isinstance(value, str):
            return cls(value, DataType.STRING, source)
        raise TypeError_(f"unsupported literal: {value!r}")

    def negated(self) -> "Literal":
        """Unary minus folded into a numeric literal."""
        source = self.source
        if source is not None:
            source = LiteralSource(source.token, not source.negated)
        return Literal(-self.value, self.dtype, source)

    def in_int64(self) -> "Literal":
        """This literal, when it is not an integer outside int64."""
        if self.dtype is DataType.INT64 and not (
            _INT64_MIN <= self.value <= _INT64_MAX
        ):
            raise TypeError_(
                f"integer literal {self.value} is outside the int64 range"
            )
        return self

    def as_timestamp(self) -> "Literal":
        """Reinterpret a string literal as a timestamp (front-end coercion)."""
        if self.dtype is DataType.TIMESTAMP:
            return self
        if self.dtype is DataType.STRING and looks_like_timestamp(self.value):
            source = self.source
            if source is not None and not source.timestamp:
                source = LiteralSource(source.token, source.negated, True)
            return Literal(
                parse_timestamp(self.value), DataType.TIMESTAMP, source
            )
        raise TypeError_(f"literal {self.value!r} is not a timestamp")

    def evaluate(self, batch: ColumnBatch) -> Column:
        return Column.constant(self.dtype, self.value, batch.num_rows)

    def references(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        if self.dtype is DataType.STRING:
            return f"'{self.value}'"
        return str(self.value)


_COMPARE_OPS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class Comparison(Expr):
    """A binary comparison yielding a BOOL column."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _COMPARE_OPS:
            raise TypeError_(f"unknown comparison operator {op!r}")
        left, right = _coerce_comparison(left, right)
        if not comparable(left.dtype, right.dtype):
            raise TypeError_(
                f"cannot compare {left.dtype.value} with {right.dtype.value}"
            )
        self.op = op
        self.left = left
        self.right = right
        self.dtype = DataType.BOOL

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, batch: ColumnBatch) -> Column:
        kernel = _COMPARE_OPS[self.op]
        left_col = self.left.evaluate(batch)
        right_col = self.right.evaluate(batch)
        if DataType.STRING in (left_col.dtype, right_col.dtype):
            # Fast path: dictionary column against a constant string.
            fast = _string_constant_compare(self.op, self.left, self.right, batch)
            if fast is not None:
                return fast
            left_vals: np.ndarray = left_col.decoded()
            right_vals: np.ndarray = right_col.decoded()
        else:
            left_vals = left_col.values
            right_vals = right_col.values
        return Column(DataType.BOOL, kernel(left_vals, right_vals))

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


def _coerce_comparison(left: Expr, right: Expr) -> tuple[Expr, Expr]:
    """Coerce string literals compared against timestamps (SQL front-ends
    write ``R.start_time > '2010-01-12T00:00:00.000'``)."""
    if left.dtype is DataType.TIMESTAMP and isinstance(right, Literal) \
            and right.dtype is DataType.STRING:
        return left, right.as_timestamp()
    if right.dtype is DataType.TIMESTAMP and isinstance(left, Literal) \
            and left.dtype is DataType.STRING:
        return left.as_timestamp(), right
    return left, right


def _string_constant_compare(
    op: str, left: Expr, right: Expr, batch: ColumnBatch
) -> Column | None:
    """Equality/inequality of a dictionary column against a literal, done on
    codes without decoding. Returns None when the fast path does not apply."""
    if op not in ("=", "<>"):
        return None
    ref, lit = None, None
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        ref, lit = left, right
    elif isinstance(right, ColumnRef) and isinstance(left, Literal):
        ref, lit = right, left
    if ref is None or ref.dtype is not DataType.STRING \
            or lit.dtype is not DataType.STRING:
        return None
    col = batch.column(ref.key)
    assert col.dictionary is not None
    code = col.dictionary.lookup(str(lit.value))
    if code is None:
        mask = np.zeros(len(col), dtype=bool)
    else:
        mask = col.values == code
    if op == "<>":
        mask = ~mask
    return Column(DataType.BOOL, mask)


class BoolOp(Expr):
    """N-ary AND / OR over BOOL expressions."""

    def __init__(self, op: str, operands: list[Expr]) -> None:
        if op not in ("and", "or"):
            raise TypeError_(f"unknown boolean operator {op!r}")
        if not operands:
            raise TypeError_(f"{op} requires at least one operand")
        for operand in operands:
            if operand.dtype is not DataType.BOOL:
                raise TypeError_(
                    f"{op} operand has type {operand.dtype.value}, expected bool"
                )
        self.op = op
        self.operands = operands
        self.dtype = DataType.BOOL

    def children(self) -> tuple[Expr, ...]:
        return tuple(self.operands)

    def evaluate(self, batch: ColumnBatch) -> Column:
        kernel = np.logical_and if self.op == "and" else np.logical_or
        result = self.operands[0].evaluate(batch).values
        for operand in self.operands[1:]:
            result = kernel(result, operand.evaluate(batch).values)
        return Column(DataType.BOOL, result)

    def references(self) -> set[str]:
        refs: set[str] = set()
        for operand in self.operands:
            refs |= operand.references()
        return refs

    def __repr__(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(repr(o) for o in self.operands) + ")"


class Not(Expr):
    """Boolean negation."""

    def __init__(self, operand: Expr) -> None:
        if operand.dtype is not DataType.BOOL:
            raise TypeError_("NOT requires a boolean operand")
        self.operand = operand
        self.dtype = DataType.BOOL

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: ColumnBatch) -> Column:
        return Column(DataType.BOOL, ~self.operand.evaluate(batch).values)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


_ARITH_OPS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}


class Arithmetic(Expr):
    """Binary arithmetic over numeric (or timestamp ± int) operands."""

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH_OPS:
            raise TypeError_(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        if left.dtype is DataType.TIMESTAMP or right.dtype is DataType.TIMESTAMP:
            self.dtype = self._timestamp_result(op, left.dtype, right.dtype)
        elif op == "/":
            common_numeric_type(left.dtype, right.dtype)
            self.dtype = DataType.FLOAT64
        else:
            self.dtype = common_numeric_type(left.dtype, right.dtype)

    @staticmethod
    def _timestamp_result(op: str, left: DataType, right: DataType) -> DataType:
        if op == "-" and left is DataType.TIMESTAMP and right is DataType.TIMESTAMP:
            return DataType.INT64  # microsecond difference
        if op in ("+", "-") and left is DataType.TIMESTAMP and right is DataType.INT64:
            return DataType.TIMESTAMP
        if op == "+" and left is DataType.INT64 and right is DataType.TIMESTAMP:
            return DataType.TIMESTAMP
        raise TypeError_(
            f"unsupported timestamp arithmetic: {left.value} {op} {right.value}"
        )

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def evaluate(self, batch: ColumnBatch) -> Column:
        kernel = _ARITH_OPS[self.op]
        left_vals = self.left.evaluate(batch).values
        right_vals = self.right.evaluate(batch).values
        result = kernel(left_vals, right_vals)
        return Column(self.dtype, np.asarray(result))

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Negate(Expr):
    """Unary minus."""

    def __init__(self, operand: Expr) -> None:
        if not operand.dtype.is_numeric:
            raise TypeError_("unary minus requires a numeric operand")
        self.operand = operand
        self.dtype = operand.dtype

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: ColumnBatch) -> Column:
        return Column(self.dtype, -self.operand.evaluate(batch).values)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


_FUNCTIONS = {
    "abs": (np.abs, None),
    "sqrt": (np.sqrt, DataType.FLOAT64),
    "floor": (np.floor, DataType.FLOAT64),
    "ceil": (np.ceil, DataType.FLOAT64),
}


class FuncCall(Expr):
    """A scalar function call (abs, sqrt, floor, ceil)."""

    def __init__(self, name: str, operand: Expr) -> None:
        lowered = name.lower()
        if lowered not in _FUNCTIONS:
            raise TypeError_(f"unknown scalar function {name!r}")
        if not operand.dtype.is_numeric:
            raise TypeError_(f"{name} requires a numeric operand")
        self.name = lowered
        self.operand = operand
        kernel, forced = _FUNCTIONS[lowered]
        self._kernel = kernel
        self.dtype = forced or operand.dtype

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def evaluate(self, batch: ColumnBatch) -> Column:
        result = self._kernel(self.operand.evaluate(batch).values)
        return Column(self.dtype, np.asarray(result))

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"{self.name}({self.operand!r})"


def conjuncts(expression: Expr) -> list[Expr]:
    """Split a predicate into its top-level AND conjuncts."""
    if isinstance(expression, BoolOp) and expression.op == "and":
        parts: list[Expr] = []
        for operand in expression.operands:
            parts.extend(conjuncts(operand))
        return parts
    return [expression]


def conjoin(predicates: list[Expr]) -> Expr | None:
    """Combine predicates with AND; None for an empty list."""
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return BoolOp("and", predicates)
