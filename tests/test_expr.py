"""Tests for typed expressions and their vectorized evaluation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.db import Column, ColumnBatch, DataType
from repro.db.errors import TypeError_
from repro.db.expr import (
    Arithmetic,
    BoolOp,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    Negate,
    Not,
    conjoin,
    conjuncts,
)


def batch():
    return ColumnBatch(
        ["t.x", "t.y", "t.s", "t.ts"],
        [
            Column.from_pylist(DataType.INT64, [1, 2, 3, 4]),
            Column.from_pylist(DataType.FLOAT64, [1.5, -2.0, 0.0, 4.0]),
            Column.from_pylist(DataType.STRING, ["a", "b", "a", "c"]),
            Column.from_pylist(DataType.TIMESTAMP, [0, 1_000_000, 2_000_000, 3_000_000]),
        ],
    )


def x():
    return ColumnRef("t.x", DataType.INT64)


def s():
    return ColumnRef("t.s", DataType.STRING)


class TestLiteral:
    def test_infer_types(self):
        assert Literal.infer(1).dtype is DataType.INT64
        assert Literal.infer(1.5).dtype is DataType.FLOAT64
        assert Literal.infer("x").dtype is DataType.STRING
        assert Literal.infer(True).dtype is DataType.BOOL

    def test_infer_rejects_unknown(self):
        with pytest.raises(TypeError_):
            Literal.infer(object())

    def test_as_timestamp(self):
        lit = Literal.infer("1970-01-01T00:00:01").as_timestamp()
        assert lit.dtype is DataType.TIMESTAMP
        assert lit.value == 1_000_000

    def test_as_timestamp_rejects_non_timestamp(self):
        with pytest.raises(TypeError_):
            Literal.infer("hello").as_timestamp()

    def test_evaluate_broadcasts(self):
        col = Literal.infer(7).evaluate(batch())
        assert col.to_pylist() == [7, 7, 7, 7]


class TestComparison:
    def test_int_comparison(self):
        mask = Comparison(">", x(), Literal.infer(2)).evaluate(batch())
        assert mask.to_pylist() == [False, False, True, True]

    def test_string_equality_fast_path(self):
        mask = Comparison("=", s(), Literal.infer("a")).evaluate(batch())
        assert mask.to_pylist() == [True, False, True, False]

    def test_string_equality_absent_value(self):
        mask = Comparison("=", s(), Literal.infer("zzz")).evaluate(batch())
        assert mask.to_pylist() == [False] * 4

    def test_string_inequality(self):
        mask = Comparison("<>", s(), Literal.infer("a")).evaluate(batch())
        assert mask.to_pylist() == [False, True, False, True]

    def test_string_ordering_decodes(self):
        mask = Comparison("<", s(), Literal.infer("b")).evaluate(batch())
        assert mask.to_pylist() == [True, False, True, False]

    def test_timestamp_vs_string_literal_coerced(self):
        ts = ColumnRef("t.ts", DataType.TIMESTAMP)
        mask = Comparison(
            ">", ts, Literal.infer("1970-01-01T00:00:01")
        ).evaluate(batch())
        assert mask.to_pylist() == [False, False, True, True]

    def test_incompatible_types_rejected(self):
        with pytest.raises(TypeError_):
            Comparison("=", x(), Literal.infer("a"))

    def test_unknown_operator(self):
        with pytest.raises(TypeError_):
            Comparison("~", x(), x())

    def test_references(self):
        comp = Comparison("=", x(), s()) if False else Comparison("=", x(), Literal.infer(1))
        assert comp.references() == {"t.x"}


class TestBoolOps:
    def test_and_or(self):
        gt1 = Comparison(">", x(), Literal.infer(1))
        lt4 = Comparison("<", x(), Literal.infer(4))
        both = BoolOp("and", [gt1, lt4]).evaluate(batch())
        assert both.to_pylist() == [False, True, True, False]
        either = BoolOp("or", [gt1, Not(lt4)]).evaluate(batch())
        assert either.to_pylist() == [False, True, True, True]

    def test_not(self):
        gt1 = Comparison(">", x(), Literal.infer(1))
        assert Not(gt1).evaluate(batch()).to_pylist() == [True, False, False, False]

    def test_requires_boolean_operands(self):
        with pytest.raises(TypeError_):
            BoolOp("and", [x()])
        with pytest.raises(TypeError_):
            Not(x())

    def test_empty_operands_rejected(self):
        with pytest.raises(TypeError_):
            BoolOp("or", [])


class TestArithmetic:
    def test_int_arithmetic(self):
        expr = Arithmetic("+", x(), Literal.infer(10))
        assert expr.dtype is DataType.INT64
        assert expr.evaluate(batch()).to_pylist() == [11, 12, 13, 14]

    def test_division_is_float(self):
        expr = Arithmetic("/", x(), Literal.infer(2))
        assert expr.dtype is DataType.FLOAT64
        assert expr.evaluate(batch()).to_pylist() == [0.5, 1.0, 1.5, 2.0]

    def test_modulo(self):
        expr = Arithmetic("%", x(), Literal.infer(2))
        assert expr.evaluate(batch()).to_pylist() == [1, 0, 1, 0]

    def test_timestamp_difference_is_int(self):
        ts = ColumnRef("t.ts", DataType.TIMESTAMP)
        expr = Arithmetic("-", ts, ts)
        assert expr.dtype is DataType.INT64

    def test_timestamp_plus_int_is_timestamp(self):
        ts = ColumnRef("t.ts", DataType.TIMESTAMP)
        expr = Arithmetic("+", ts, Literal.infer(1_000_000))
        assert expr.dtype is DataType.TIMESTAMP
        assert expr.evaluate(batch()).to_pylist()[0] == 1_000_000

    def test_timestamp_times_int_rejected(self):
        ts = ColumnRef("t.ts", DataType.TIMESTAMP)
        with pytest.raises(TypeError_):
            Arithmetic("*", ts, Literal.infer(2))

    def test_string_arithmetic_rejected(self):
        with pytest.raises(TypeError_):
            Arithmetic("+", s(), Literal.infer(1))

    def test_negate(self):
        assert Negate(x()).evaluate(batch()).to_pylist() == [-1, -2, -3, -4]
        with pytest.raises(TypeError_):
            Negate(s())


class TestFuncCall:
    def test_abs(self):
        y = ColumnRef("t.y", DataType.FLOAT64)
        assert FuncCall("abs", y).evaluate(batch()).to_pylist() == [1.5, 2.0, 0.0, 4.0]

    def test_sqrt_type(self):
        assert FuncCall("sqrt", x()).dtype is DataType.FLOAT64

    def test_unknown_function(self):
        with pytest.raises(TypeError_):
            FuncCall("frobnicate", x())

    def test_non_numeric_rejected(self):
        with pytest.raises(TypeError_):
            FuncCall("abs", s())


class TestConjuncts:
    def test_flattens_nested_ands(self):
        a = Comparison(">", x(), Literal.infer(0))
        b = Comparison("<", x(), Literal.infer(5))
        c = Comparison("=", s(), Literal.infer("a"))
        nested = BoolOp("and", [BoolOp("and", [a, b]), c])
        assert conjuncts(nested) == [a, b, c]

    def test_or_not_split(self):
        a = Comparison(">", x(), Literal.infer(0))
        b = Comparison("<", x(), Literal.infer(5))
        either = BoolOp("or", [a, b])
        assert conjuncts(either) == [either]

    def test_conjoin(self):
        a = Comparison(">", x(), Literal.infer(0))
        assert conjoin([]) is None
        assert conjoin([a]) is a
        combined = conjoin([a, a])
        assert isinstance(combined, BoolOp) and combined.op == "and"


@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=50),
    st.integers(-1000, 1000),
)
def test_comparison_matches_python(values, threshold):
    data = ColumnBatch(
        ["t.v"], [Column.from_pylist(DataType.INT64, values)]
    )
    ref = ColumnRef("t.v", DataType.INT64)
    for op, fn in [
        ("<", lambda a, b: a < b),
        ("<=", lambda a, b: a <= b),
        (">", lambda a, b: a > b),
        (">=", lambda a, b: a >= b),
        ("=", lambda a, b: a == b),
        ("<>", lambda a, b: a != b),
    ]:
        got = Comparison(op, ref, Literal.infer(threshold)).evaluate(data)
        assert got.to_pylist() == [fn(v, threshold) for v in values]


@given(
    st.lists(
        st.tuples(st.integers(-100, 100), st.integers(1, 100)),
        min_size=1,
        max_size=30,
    )
)
def test_arithmetic_matches_python(pairs):
    a_vals = [a for a, _ in pairs]
    b_vals = [b for _, b in pairs]
    data = ColumnBatch(
        ["t.a", "t.b"],
        [
            Column.from_pylist(DataType.INT64, a_vals),
            Column.from_pylist(DataType.INT64, b_vals),
        ],
    )
    a = ColumnRef("t.a", DataType.INT64)
    b = ColumnRef("t.b", DataType.INT64)
    assert Arithmetic("+", a, b).evaluate(data).to_pylist() == [
        u + v for u, v in pairs
    ]
    assert Arithmetic("*", a, b).evaluate(data).to_pylist() == [
        u * v for u, v in pairs
    ]
    got = Arithmetic("/", a, b).evaluate(data).to_pylist()
    assert got == pytest.approx([u / v for u, v in pairs])


NEGATED_SQL = (
    "SELECT SUM(abs(-D.sample_value)) FROM F AS x JOIN D ON x.uri = D.uri "
    "WHERE NOT (x.station = 'ISK') AND x.uri IN (SELECT uri FROM R)"
)


def test_not_negate_and_functions_through_both_engines(ei_db, executor):
    """NOT, unary minus and a scalar function run through binding, pushdown,
    plan verification and EXPLAIN, and answer what numpy answers."""
    raw = ei_db.execute(
        "SELECT D.sample_value FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station <> 'ISK'"
    )
    expected = float(np.abs(np.array([row[0] for row in raw.rows()])).sum())
    assert ei_db.execute(NEGATED_SQL).rows()[0][0] == pytest.approx(expected)
    was, executor.db.verify_plans = executor.db.verify_plans, True
    try:
        outcome = executor.execute(NEGATED_SQL)
        plan = executor.explain(NEGATED_SQL)
    finally:
        executor.db.verify_plans = was
    assert outcome.rows[0][0] == pytest.approx(expected)
    assert "(NOT (x.station = 'ISK'))" in plan
    assert "abs((-d.sample_value))" in plan
    assert "Scan(F AS x)" in plan and "SemiJoin[x.uri IN (subquery)]" in plan
