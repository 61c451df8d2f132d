"""Tests for uncorrelated ``IN (SELECT ...)`` subqueries (semi-joins)."""

import pytest

from repro.db import ColumnDef, Database, DataType, TableSchema
from repro.db.errors import BindError, SqlSyntaxError
from repro.db.sql.ast import ESubqueryIn
from repro.db.sql.parser import parse_sql


@pytest.fixture()
def db():
    db = Database()
    db.create_table(
        TableSchema("orders", [
            ColumnDef("id", DataType.INT64),
            ColumnDef("customer", DataType.STRING),
            ColumnDef("total", DataType.FLOAT64),
        ])
    )
    db.create_table(
        TableSchema("vips", [ColumnDef("name", DataType.STRING)])
    )
    db.insert_rows("orders", [
        (1, "ada", 10.0), (2, "bob", 20.0), (3, "ada", 30.0), (4, "cyd", 5.0),
    ])
    db.insert_rows("vips", [("ada",), ("cyd",)])
    return db


class TestParsing:
    def test_in_subquery_parses(self):
        stmt = parse_sql(
            "SELECT id FROM orders WHERE customer IN (SELECT name FROM vips)"
        )
        assert isinstance(stmt.where, ESubqueryIn)
        assert stmt.where.subquery.from_tables[0].name == "vips"

    def test_not_in_subquery(self):
        stmt = parse_sql(
            "SELECT id FROM orders WHERE customer NOT IN "
            "(SELECT name FROM vips)"
        )
        assert stmt.where.negated

    def test_nested_clauses_inside_subquery(self):
        stmt = parse_sql(
            "SELECT id FROM orders WHERE customer IN "
            "(SELECT name FROM vips WHERE name <> 'bob' ORDER BY name LIMIT 5)"
        )
        assert stmt.where.subquery.limit == 5

    def test_unbalanced_subquery_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_sql(
                "SELECT id FROM orders WHERE customer IN (SELECT name FROM vips"
            )


class TestExecution:
    def test_in_subquery(self, db):
        rows = db.execute(
            "SELECT id FROM orders WHERE customer IN "
            "(SELECT name FROM vips) ORDER BY id"
        ).rows()
        assert rows == [(1,), (3,), (4,)]

    def test_not_in_subquery(self, db):
        rows = db.execute(
            "SELECT id FROM orders WHERE customer NOT IN "
            "(SELECT name FROM vips) ORDER BY id"
        ).rows()
        assert rows == [(2,)]

    def test_combined_with_plain_predicates(self, db):
        rows = db.execute(
            "SELECT id FROM orders WHERE total > 8.0 AND customer IN "
            "(SELECT name FROM vips) ORDER BY id"
        ).rows()
        assert rows == [(1,), (3,)]

    def test_subquery_with_own_predicate(self, db):
        rows = db.execute(
            "SELECT id FROM orders WHERE customer IN "
            "(SELECT name FROM vips WHERE name = 'cyd')"
        ).rows()
        assert rows == [(4,)]

    def test_empty_subquery_result(self, db):
        rows = db.execute(
            "SELECT id FROM orders WHERE customer IN "
            "(SELECT name FROM vips WHERE name = 'zzz')"
        ).rows()
        assert rows == []

    def test_numeric_membership(self, db):
        rows = db.execute(
            "SELECT customer FROM orders WHERE id IN "
            "(SELECT id FROM orders WHERE total > 15.0) ORDER BY id"
        ).rows()
        assert rows == [("bob",), ("ada",)]

    def test_aggregating_subquery(self, db):
        rows = db.execute(
            "SELECT id FROM orders WHERE customer IN "
            "(SELECT customer FROM orders GROUP BY customer "
            "HAVING COUNT(*) > 1) ORDER BY id"
        ).rows()
        assert rows == [(1,), (3,)]


class TestValidation:
    def test_multi_column_subquery_rejected(self, db):
        with pytest.raises(BindError, match="exactly one column"):
            db.execute(
                "SELECT id FROM orders WHERE customer IN "
                "(SELECT name, name FROM vips)"
            )

    def test_type_mismatch_rejected(self, db):
        with pytest.raises(BindError, match="membership"):
            db.execute(
                "SELECT id FROM orders WHERE id IN (SELECT name FROM vips)"
            )

    def test_subquery_under_or_rejected(self, db):
        with pytest.raises(BindError, match="top-level WHERE conjunct"):
            db.execute(
                "SELECT id FROM orders WHERE total > 5.0 OR customer IN "
                "(SELECT name FROM vips)"
            )


class TestTwoStageIntegration:
    def test_metadata_subquery_narrows_files(self, executor, ei_db):
        """A genuinely explorative use: 'average over the station-days whose
        record count is typical' — the membership test runs entirely on
        metadata in stage 1."""
        sql = (
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.uri IN (SELECT uri FROM R WHERE record_id = 4) "
            "AND F.station = 'ISK'"
        )
        got = executor.execute(sql)
        assert got.rows == ei_db.execute(sql).rows()
        # Membership + station predicates evaluated as metadata: only ISK
        # files with a 5th record were mounted.
        assert got.result.trace.counters["files_mounted"] == got.breakpoint.n_files
