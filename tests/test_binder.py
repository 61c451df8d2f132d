"""Tests for name resolution and logical plan construction."""

import pytest

from repro.db import ColumnDef, Database, DataType, TableKind, TableSchema
from repro.db.errors import BindError
from repro.db.plan.logical import (
    Aggregate,
    Distinct,
    Join,
    Limit,
    Project,
    Scan,
    Select,
    Sort,
)


@pytest.fixture()
def db():
    db = Database()
    db.create_table(
        TableSchema(
            "F",
            [
                ColumnDef("uri", DataType.STRING),
                ColumnDef("station", DataType.STRING),
                ColumnDef("nsamples", DataType.INT64),
            ],
            kind=TableKind.METADATA,
        )
    )
    db.create_table(
        TableSchema(
            "D",
            [
                ColumnDef("uri", DataType.STRING),
                ColumnDef("sample_time", DataType.TIMESTAMP),
                ColumnDef("sample_value", DataType.FLOAT64),
            ],
            kind=TableKind.ACTUAL,
        )
    )
    return db


class TestResolution:
    def test_unqualified_unique(self, db):
        plan = db.bind_sql("SELECT station FROM F")
        assert isinstance(plan, Project)
        assert plan.output == [("station", DataType.STRING)]

    def test_qualified(self, db):
        plan = db.bind_sql("SELECT F.station FROM F")
        assert plan.output[0][0] == "station"

    def test_alias_binding(self, db):
        plan = db.bind_sql("SELECT x.station FROM F x")
        assert isinstance(plan.child, Scan)
        assert plan.child.alias == "x"

    def test_unknown_table(self, db):
        with pytest.raises(Exception):
            db.bind_sql("SELECT x FROM nosuch")

    def test_unknown_column(self, db):
        with pytest.raises(BindError):
            db.bind_sql("SELECT zzz FROM F")

    def test_ambiguous_column(self, db):
        with pytest.raises(BindError, match="ambiguous"):
            db.bind_sql("SELECT uri FROM F JOIN D ON F.uri = D.uri")

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(BindError, match="duplicate"):
            db.bind_sql("SELECT 1 FROM F a, D a")

    def test_original_alias_shadowed_by_explicit(self, db):
        with pytest.raises(BindError):
            db.bind_sql("SELECT F.station FROM F x")


class TestPlanShapes:
    def test_where_becomes_select(self, db):
        plan = db.bind_sql("SELECT station FROM F WHERE nsamples > 3")
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Select)

    def test_join_on(self, db):
        plan = db.bind_sql("SELECT station FROM F JOIN D ON F.uri = D.uri")
        join = plan.child
        assert isinstance(join, Join)
        assert join.condition is not None

    def test_comma_tables_cross_product(self, db):
        plan = db.bind_sql("SELECT station FROM F, D")
        join = plan.child
        assert isinstance(join, Join)
        assert join.condition is None

    def test_order_by_inserts_sort_below_project(self, db):
        plan = db.bind_sql("SELECT station FROM F ORDER BY nsamples DESC")
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Sort)
        assert plan.child.keys[0][1] is False

    def test_order_by_select_alias(self, db):
        plan = db.bind_sql("SELECT nsamples AS n FROM F ORDER BY n")
        sort = plan.child
        assert isinstance(sort, Sort)

    def test_limit_on_top(self, db):
        plan = db.bind_sql("SELECT station FROM F LIMIT 5")
        assert isinstance(plan, Limit)
        assert plan.count == 5

    def test_distinct_node(self, db):
        plan = db.bind_sql("SELECT DISTINCT station FROM F")
        assert isinstance(plan, Distinct)

    def test_where_must_be_boolean(self, db):
        with pytest.raises(BindError):
            db.bind_sql("SELECT station FROM F WHERE nsamples")

    def test_join_condition_must_be_boolean(self, db):
        with pytest.raises(BindError):
            db.bind_sql("SELECT station FROM F JOIN D ON D.sample_value")


class TestAggregates:
    def test_scalar_aggregate(self, db):
        plan = db.bind_sql("SELECT AVG(sample_value) FROM D")
        assert isinstance(plan, Project)
        agg = plan.child
        assert isinstance(agg, Aggregate)
        assert agg.groups == []
        assert agg.aggs[0].func == "avg"
        assert agg.aggs[0].dtype is DataType.FLOAT64

    def test_group_by(self, db):
        plan = db.bind_sql("SELECT station, COUNT(*) FROM F GROUP BY station")
        agg = plan.child
        assert isinstance(agg, Aggregate)
        assert len(agg.groups) == 1
        assert agg.aggs[0].func == "count"
        assert agg.aggs[0].dtype is DataType.INT64

    def test_group_key_referenced_by_qualified_name(self, db):
        plan = db.bind_sql("SELECT F.station FROM F GROUP BY station")
        assert isinstance(plan.child, Aggregate)

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(BindError, match="GROUP BY"):
            db.bind_sql("SELECT uri, COUNT(*) FROM F GROUP BY station")

    def test_bare_column_with_aggregate_rejected(self, db):
        with pytest.raises(BindError):
            db.bind_sql("SELECT station, COUNT(*) FROM F")

    def test_duplicate_aggregates_shared(self, db):
        plan = db.bind_sql(
            "SELECT AVG(sample_value), AVG(sample_value) FROM D"
        )
        agg = plan.child
        assert len(agg.aggs) == 1

    def test_arithmetic_over_aggregates(self, db):
        plan = db.bind_sql(
            "SELECT SUM(sample_value) / COUNT(*) FROM D"
        )
        agg = plan.child
        assert {spec.func for spec in agg.aggs} == {"sum", "count"}

    def test_having(self, db):
        plan = db.bind_sql(
            "SELECT station, COUNT(*) FROM F GROUP BY station "
            "HAVING COUNT(*) > 1"
        )
        assert isinstance(plan, Project)
        assert isinstance(plan.child, Select)
        assert isinstance(plan.child.child, Aggregate)

    def test_order_by_aggregate(self, db):
        plan = db.bind_sql(
            "SELECT station, COUNT(*) AS n FROM F GROUP BY station ORDER BY n DESC"
        )
        assert isinstance(plan.child, Sort)

    def test_sum_of_int_is_int(self, db):
        plan = db.bind_sql("SELECT SUM(nsamples) FROM F")
        assert plan.child.aggs[0].dtype is DataType.INT64

    def test_min_keeps_argument_type(self, db):
        plan = db.bind_sql("SELECT MIN(sample_time) FROM D")
        assert plan.child.aggs[0].dtype is DataType.TIMESTAMP

    def test_aggregate_in_where_rejected(self, db):
        with pytest.raises(BindError):
            db.bind_sql("SELECT station FROM F WHERE COUNT(*) > 1")

    def test_star_with_group_by_rejected(self, db):
        with pytest.raises(BindError):
            db.bind_sql("SELECT * FROM F GROUP BY station")


class TestStarExpansion:
    def test_bare_star(self, db):
        plan = db.bind_sql("SELECT * FROM F")
        assert [name for name, _ in plan.output] == ["uri", "station", "nsamples"]

    def test_qualified_star(self, db):
        plan = db.bind_sql("SELECT D.* FROM F JOIN D ON F.uri = D.uri")
        assert [name for name, _ in plan.output] == [
            "uri", "sample_time", "sample_value",
        ]

    def test_star_over_join_qualifies_duplicates(self, db):
        plan = db.bind_sql("SELECT * FROM F JOIN D ON F.uri = D.uri")
        names = [name for name, _ in plan.output]
        assert "f.uri" in names and "d.uri" in names
        assert "station" in names

    def test_duplicate_output_names_deduped(self, db):
        plan = db.bind_sql("SELECT station, station FROM F")
        names = [name for name, _ in plan.output]
        assert names == ["station", "station_1"]


class TestLiteralsAndExpressions:
    def test_between_lowered(self, db):
        plan = db.bind_sql(
            "SELECT station FROM F WHERE nsamples BETWEEN 2 AND 7"
        )
        predicate = plan.child.predicate
        assert "AND" in repr(predicate)

    def test_in_lowered_to_or(self, db):
        plan = db.bind_sql(
            "SELECT station FROM F WHERE station IN ('ISK', 'ANK')"
        )
        assert "OR" in repr(plan.child.predicate)

    def test_negative_literal_folded(self, db):
        plan = db.bind_sql("SELECT -5 FROM F")
        name, expr = plan.items[0]
        assert repr(expr) == "-5"

    def test_timestamp_comparison_coerced(self, db):
        plan = db.bind_sql(
            "SELECT uri FROM D WHERE sample_time > '2010-01-12T00:00:00'"
        )
        assert "1263254400000000" in repr(plan.child.predicate)


@pytest.mark.parametrize("sql, refusal", [
    ("SELECT g.* FROM F", "unknown table alias g"),
    ("SELECT abs(nsamples, 1) FROM F", "abs takes exactly one argument"),
    ("SELECT SUM(nsamples, uri) FROM F", "sum takes exactly one argument"),
    (
        "SELECT station FROM F GROUP BY station HAVING COUNT(*)",
        "HAVING predicate must be boolean",
    ),
])
def test_malformed_queries_refused(db, sql, refusal):
    with pytest.raises(BindError, match=refusal):
        db.bind_sql(sql)


@pytest.mark.parametrize("sql, label", [
    ("SELECT abs(SUM(nsamples)) FROM F", "abs(agg_0)"),
    ("SELECT SUM(nsamples) BETWEEN 1 AND 2 FROM F", "((agg_0 >= 1) AND"),
    ("SELECT SUM(nsamples) IN (1, 2) FROM F", "((agg_0 = 1) OR"),
    ("SELECT COUNT(*) FROM F GROUP BY nsamples + 1", "('group_0', (f.nsamples + 1))"),
])
def test_aggregates_found_inside_expressions(db, sql, label):
    plan = db.bind_sql(sql)
    assert isinstance(plan, Project)
    assert isinstance(plan.child, Aggregate)
    assert label in repr(plan.items) + repr(plan.child.groups)
