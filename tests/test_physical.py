"""Tests for physical operators: joins, aggregation, sort, distinct, limit.

Each operator's output is checked against a straightforward Python
re-implementation over the same rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db import ColumnDef, Database, DataType, TableSchema
from repro.db.errors import ExecutionError


@pytest.fixture()
def db():
    db = Database()
    db.create_table(
        TableSchema(
            "L",
            [
                ColumnDef("k", DataType.INT64),
                ColumnDef("s", DataType.STRING),
                ColumnDef("v", DataType.FLOAT64),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "Rt",
            [ColumnDef("k", DataType.INT64), ColumnDef("w", DataType.INT64)],
        )
    )
    db.insert_rows("L", [
        (1, "a", 1.0), (2, "b", 2.0), (2, "b", 3.0), (3, "c", 4.0),
    ])
    db.insert_rows("Rt", [(2, 20), (2, 21), (3, 30), (4, 40)])
    return db


class TestHashJoin:
    def test_inner_join_multiplicity(self, db):
        rows = db.execute(
            "SELECT L.k, L.v, Rt.w FROM L JOIN Rt ON L.k = Rt.k "
            "ORDER BY L.v, Rt.w"
        ).rows()
        assert rows == [
            (2, 2.0, 20), (2, 2.0, 21), (2, 3.0, 20), (2, 3.0, 21),
            (3, 4.0, 30),
        ]

    def test_empty_join(self, db):
        rows = db.execute(
            "SELECT L.k FROM L JOIN Rt ON L.k = Rt.w"
        ).rows()
        assert rows == []

    def test_string_join_keys(self, db):
        db.create_table(
            TableSchema("S2", [ColumnDef("s", DataType.STRING),
                               ColumnDef("tag", DataType.STRING)])
        )
        db.insert_rows("S2", [("b", "beta"), ("c", "gamma"), ("z", "zeta")])
        rows = db.execute(
            "SELECT L.s, S2.tag FROM L JOIN S2 ON L.s = S2.s ORDER BY L.v"
        ).rows()
        assert rows == [("b", "beta"), ("b", "beta"), ("c", "gamma")]

    def test_join_with_residual_condition(self, db):
        rows = db.execute(
            "SELECT L.v, Rt.w FROM L JOIN Rt ON L.k = Rt.k AND Rt.w > 20 "
            "ORDER BY L.v, Rt.w"
        ).rows()
        assert rows == [(2.0, 21), (3.0, 21), (4.0, 30)]

    def test_nan_keys_join_and_match_nothing(self, db):
        # NaN is the engine's stand-in for NULL: equal to nothing.
        nan = float("nan")
        db.create_table(TableSchema("N", [ColumnDef("v", DataType.FLOAT64)]))
        db.insert_rows("N", [(nan,), (2.0,), (nan,)])
        db.insert_rows("L", [(5, "e", nan)])
        assert db.execute(
            "SELECT L.k FROM L JOIN N ON L.v = N.v"
        ).rows() == [(2,)]
        assert db.execute(
            "SELECT k FROM L WHERE v IN (SELECT v FROM N)"
        ).rows() == [(2,)]


class TestNestedLoopJoin:
    def test_cross_product(self, db):
        result = db.execute("SELECT L.k, Rt.k FROM L, Rt")
        assert result.num_rows == 16

    def test_non_equi_condition(self, db):
        rows = db.execute(
            "SELECT L.k, Rt.k FROM L JOIN Rt ON L.k < Rt.k "
            "ORDER BY L.k, Rt.k"
        ).rows()
        expected = [
            (lk, rk)
            for lk in [1, 2, 2, 3]
            for rk in [2, 2, 3, 4]
            if lk < rk
        ]
        assert sorted(rows) == sorted(expected)


class TestIndexJoin:
    def test_index_join_used_and_correct(self, db):
        db.create_table(
            TableSchema(
                "Keyed",
                [ColumnDef("k", DataType.INT64), ColumnDef("tag", DataType.STRING)],
                primary_key=("k",),
            )
        )
        db.insert_rows("Keyed", [(1, "one"), (2, "two"), (3, "three")])
        db.build_key_indexes("Keyed")
        result = db.execute(
            "SELECT L.v, Keyed.tag FROM L JOIN Keyed ON L.k = Keyed.k "
            "ORDER BY L.v"
        )
        assert result.rows() == [
            (1.0, "one"), (2.0, "two"), (3.0, "two"), (4.0, "three"),
        ]
        # The index object was touched in the buffer manager.
        assert any("index:keyed" in name for name in result.io.touched)

    def test_disabled_indexes_give_same_answer(self, db):
        db.create_table(
            TableSchema(
                "Keyed2",
                [ColumnDef("k", DataType.INT64), ColumnDef("tag", DataType.STRING)],
                primary_key=("k",),
            )
        )
        db.insert_rows("Keyed2", [(2, "x"), (3, "y")])
        db.build_key_indexes("Keyed2")
        sql = (
            "SELECT L.v, Keyed2.tag FROM L JOIN Keyed2 ON L.k = Keyed2.k "
            "ORDER BY L.v"
        )
        assert (
            db.execute(sql, use_indexes=True).rows()
            == db.execute(sql, use_indexes=False).rows()
        )


class TestAggregation:
    def test_scalar_aggregates(self, db):
        row = db.execute(
            "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM L"
        ).rows()[0]
        assert row == (4, 10.0, 2.5, 1.0, 4.0)

    def test_group_by_string(self, db):
        rows = db.execute(
            "SELECT s, COUNT(*), SUM(v) FROM L GROUP BY s ORDER BY s"
        ).rows()
        assert rows == [("a", 1, 1.0), ("b", 2, 5.0), ("c", 1, 4.0)]

    def test_group_by_multiple_keys(self, db):
        rows = db.execute(
            "SELECT k, s, COUNT(*) FROM L GROUP BY k, s ORDER BY k"
        ).rows()
        assert rows == [(1, "a", 1), (2, "b", 2), (3, "c", 1)]

    def test_count_distinct(self, db):
        row = db.execute("SELECT COUNT(DISTINCT k) FROM L").rows()[0]
        assert row == (3,)

    def test_sum_distinct(self, db):
        db.insert_rows("Rt", [(2, 20)])  # duplicate w=20
        row = db.execute("SELECT SUM(DISTINCT w) FROM Rt").rows()[0]
        assert row == (20 + 21 + 30 + 40,)

    def test_min_max_strings(self, db):
        row = db.execute("SELECT MIN(s), MAX(s) FROM L").rows()[0]
        assert row == ("a", "c")

    def test_empty_input_scalar_aggregate(self, db):
        row = db.execute(
            "SELECT COUNT(*), SUM(k), AVG(v) FROM L WHERE k > 100"
        ).rows()[0]
        assert row[0] == 0
        assert row[1] == 0  # documented no-NULL simplification
        assert math.isnan(row[2])

    def test_empty_input_grouped_aggregate(self, db):
        rows = db.execute(
            "SELECT s, COUNT(*) FROM L WHERE k > 100 GROUP BY s"
        ).rows()
        assert rows == []

    def test_having_filters_groups(self, db):
        rows = db.execute(
            "SELECT s, COUNT(*) FROM L GROUP BY s HAVING COUNT(*) > 1"
        ).rows()
        assert rows == [("b", 2)]

    def test_min_max_timestamps(self, db):
        db.create_table(
            TableSchema("T", [ColumnDef("ts", DataType.TIMESTAMP)])
        )
        db.insert_rows("T", [("2010-01-01",), ("2010-01-03",), ("2010-01-02",)])
        row = db.execute("SELECT MIN(ts), MAX(ts) FROM T").rows()[0]
        from repro.db import parse_timestamp

        assert row == (parse_timestamp("2010-01-01"), parse_timestamp("2010-01-03"))

    def test_integer_extremes_and_sums_are_exact(self, db):
        """Past 2**53 a float64 detour rounds: MAX once answered a value
        not in the table, and a MAX near 2**63 wrapped negative."""
        db.insert_rows("Rt", [(0, 2**53 + 1), (0, 2**53 + 3), (1, 2**53)])
        rows = db.execute(
            "SELECT MIN(w), MAX(w), SUM(w) FROM Rt WHERE k < 2"
        ).rows()
        assert rows == [(2**53, 2**53 + 3, 3 * 2**53 + 4)]
        db.insert_rows("Rt", [(5, 2**63 - 4)])
        assert db.execute("SELECT MAX(w) FROM Rt").rows() == [(2**63 - 4,)]
        with pytest.raises(ExecutionError, match="overflows int64"):
            db.execute("SELECT SUM(w) FROM Rt")


class TestSortDistinctLimit:
    def test_multi_key_sort(self, db):
        rows = db.execute("SELECT k, v FROM L ORDER BY k DESC, v ASC").rows()
        assert rows == [(3, 4.0), (2, 2.0), (2, 3.0), (1, 1.0)]

    def test_sort_strings(self, db):
        rows = db.execute("SELECT s FROM L ORDER BY s DESC").rows()
        assert [r[0] for r in rows] == ["c", "b", "b", "a"]

    def test_distinct(self, db):
        rows = db.execute("SELECT DISTINCT k FROM L ORDER BY k").rows()
        assert rows == [(1,), (2,), (3,)]

    def test_distinct_multi_column(self, db):
        rows = db.execute("SELECT DISTINCT k, s FROM L").rows()
        assert len(rows) == 3

    def test_limit(self, db):
        rows = db.execute("SELECT v FROM L ORDER BY v DESC LIMIT 2").rows()
        assert rows == [(4.0,), (3.0,)]

    def test_limit_larger_than_input(self, db):
        assert db.execute("SELECT v FROM L LIMIT 100").num_rows == 4

    def test_order_by_expression(self, db):
        rows = db.execute("SELECT v FROM L ORDER BY 0 - v").rows()
        assert [r[0] for r in rows] == [4.0, 3.0, 2.0, 1.0]


@settings(deadline=None, max_examples=25)
@given(
    left=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-10, 10)),
        max_size=30,
    ),
    right=st.lists(
        st.tuples(st.integers(0, 5), st.integers(-10, 10)),
        max_size=30,
    ),
)
def test_hash_join_matches_python(left, right):
    db = Database()
    db.create_table(
        TableSchema("A", [ColumnDef("k", DataType.INT64),
                          ColumnDef("x", DataType.INT64)])
    )
    db.create_table(
        TableSchema("B", [ColumnDef("k", DataType.INT64),
                          ColumnDef("y", DataType.INT64)])
    )
    if left:
        db.insert_rows("A", left)
    if right:
        db.insert_rows("B", right)
    got = db.execute("SELECT A.k, A.x, B.y FROM A JOIN B ON A.k = B.k").rows()
    expected = [
        (lk, lx, ry) for lk, lx in left for rk, ry in right if lk == rk
    ]
    assert sorted(got) == sorted(expected)


@settings(deadline=None, max_examples=25)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 4), st.integers(-100, 100)),
        min_size=1,
        max_size=50,
    )
)
def test_group_by_matches_python(rows):
    db = Database()
    db.create_table(
        TableSchema("G", [ColumnDef("g", DataType.INT64),
                          ColumnDef("x", DataType.INT64)])
    )
    db.insert_rows("G", rows)
    got = db.execute(
        "SELECT g, COUNT(*), SUM(x), MIN(x), MAX(x) FROM G GROUP BY g ORDER BY g"
    ).rows()
    expected = []
    for g in sorted({g for g, _ in rows}):
        xs = [x for gg, x in rows if gg == g]
        expected.append((g, len(xs), sum(xs), min(xs), max(xs)))
    assert got == expected
