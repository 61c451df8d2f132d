"""Joins materialize only what the plan above them reads.

Column pruning records each join's output as the columns its consumers
reference; the physical joins gather a residual predicate's columns, apply
it, and only then take the declared output. After rule (1) the same pass
narrows the per-file access paths and their union, so a column only the
fused predicate reads (``d.sample_time`` under a time window) never leaves
a mount. Every answer here is checked against a reference that does not go
through the pruned plan: a Python nested loop, or eager ingestion.
"""

from __future__ import annotations

import math

import pytest

import repro.core.executor as executor_module
from repro.core import (
    CacheGranularity,
    CachePolicy,
    IngestionCache,
    PER_FILE,
    TwoStageExecutor,
)
from repro.db import ColumnDef, Database, DataType, TableSchema
from repro.db.errors import PlanInvariantError
from repro.db.plan.logical import CacheScan, Join, Mount, UnionAll
from repro.db.plan.optimizer import PhysicalPlanner
from repro.db.plan.physical import PHashJoin, PIndexJoin, PNestedLoopJoin
from repro.db.plan.verify import verify_physical, verify_plan
from repro.ingest import RepositoryBinding, lazy_ingest_metadata

A_ROWS = [(1, 0.5, "p"), (2, 3.0, "q"), (2, 1.0, "r"), (4, 9.0, "s"), (7, 2.0, "t")]
B_ROWS = [(2, 2.0, 10), (1, 0.1, 11), (2, 0.5, 12), (4, 9.5, 13), (5, 1.0, 14)]


@pytest.fixture()
def db():
    db = Database(verify_plans=True)
    db.create_table(
        TableSchema(
            "a",
            [
                ColumnDef("k", DataType.INT64),
                ColumnDef("v", DataType.FLOAT64),
                ColumnDef("w", DataType.STRING),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "b",
            [
                ColumnDef("k", DataType.INT64),
                ColumnDef("x", DataType.FLOAT64),
                ColumnDef("y", DataType.INT64),
            ],
        )
    )
    db.insert_rows("a", A_ROWS)
    db.insert_rows("b", B_ROWS)
    return db


def reference(on):
    """Joined (a, b) row pairs in left row order, then right row order."""
    return [(a, b) for a in A_ROWS for b in B_ROWS if on(a, b)]


def lowered(db, sql):
    plan = db.optimize(db.bind_sql(sql))
    return plan, PhysicalPlanner(db.catalog).plan(plan)


def first(node, kind):
    return next(n for n in node.walk() if isinstance(n, kind))


def physical_join(op):
    while not isinstance(op, (PHashJoin, PNestedLoopJoin, PIndexJoin)):
        op = op.child
    return op


class TestJoinDeclaresItsOutput:
    def test_count_star_keeps_one_column(self, db):
        sql = "SELECT COUNT(*) FROM a JOIN b ON a.k = b.k"
        plan, physical = lowered(db, sql)
        assert first(plan, Join).output_keys() == ["a.k"]
        assert physical_join(physical).output_names == ["a.k"]
        expected = len(reference(lambda a, b: a[0] == b[0]))
        assert db.execute(sql).scalar() == expected

    def test_residual_reads_columns_nothing_above_reads(self, db):
        sql = "SELECT a.w FROM a JOIN b ON a.k = b.k AND a.v < b.x"
        plan, physical = lowered(db, sql)
        assert first(plan, Join).output_keys() == ["a.w"]
        join = physical_join(physical)
        assert join.residual is not None
        assert join.residual.references() == {"a.v", "b.x"}
        ctx = db.make_context()
        assert join.execute(ctx).names == ["a.w"]
        expected = [
            (a[2],) for a, b in reference(lambda a, b: a[0] == b[0] and a[1] < b[1])
        ]
        assert db.execute(sql).rows() == expected

    def test_select_star_keeps_every_column(self, db):
        sql = "SELECT * FROM a JOIN b ON a.k = b.k"
        plan, _ = lowered(db, sql)
        assert first(plan, Join).output_keys() == [
            "a.k", "a.v", "a.w", "b.k", "b.x", "b.y",
        ]
        expected = [a + b for a, b in reference(lambda a, b: a[0] == b[0])]
        assert db.execute(sql).rows() == expected

    def test_nested_loop_takes_only_its_output(self, db):
        sql = "SELECT b.y FROM a JOIN b ON a.v < b.x"
        _, physical = lowered(db, sql)
        join = physical_join(physical)
        assert isinstance(join, PNestedLoopJoin)
        assert join.output_names == ["b.y"]
        expected = [(b[2],) for a, b in reference(lambda a, b: a[1] < b[1])]
        assert db.execute(sql).rows() == expected

    def test_verifier_rejects_outputs_the_sides_do_not_give(self, db):
        plan = db.optimize(db.bind_sql("SELECT a.w FROM a JOIN b ON a.k = b.k"))
        join = first(plan, Join)
        assert join.right.output_keys() == ["b.k"]
        pruned_away = Join(
            join.left, join.right, join.condition, [("b.y", DataType.INT64)]
        )
        reordered = Join(
            join.left, join.right, join.condition,
            [("a.w", DataType.STRING), ("a.k", DataType.INT64)],
        )
        for bad in (pruned_away, reordered):
            with pytest.raises(PlanInvariantError):
                verify_plan(bad, "test")
        physical = PhysicalPlanner(db.catalog).plan(pruned_away)
        with pytest.raises(PlanInvariantError):
            verify_physical(physical, pruned_away)

    def test_index_join_takes_only_its_output(self, ei_db):
        sql = (
            "SELECT AVG(D.sample_value) FROM R JOIN D "
            "ON R.uri = D.uri AND R.record_id = D.record_id "
            "WHERE R.record_id = 1"
        )
        plan = ei_db.optimize(ei_db.bind_sql(sql))
        assert first(plan, Join).output_keys() == ["d.sample_value"]
        join = physical_join(PhysicalPlanner(ei_db.catalog).plan(plan))
        assert isinstance(join, PIndexJoin)
        assert join.output_names == ["d.sample_value"]
        indexed = ei_db.execute(sql).scalar()
        assert indexed == ei_db.execute(sql, use_indexes=False).scalar()
        assert not math.isnan(indexed)


class TestWideKeysDoNotWrap:
    """Five columns of 65 536 values each: a product of cardinalities is
    2^80, which wrapped int64 onto other tuples before codes were
    re-factorized."""

    CARD = 1 << 16

    def _table(self, db, name, rows):
        db.create_table(
            TableSchema(
                name, [ColumnDef(c, DataType.INT64) for c in "abcde"]
            )
        )
        db.insert_rows(name, rows)

    def _diagonal(self, count):
        return [(i,) * 5 for i in range(count)]

    def test_distinct_and_group_by_count_every_tuple(self):
        db = Database()
        rows = self._diagonal(self.CARD) + [(1, 0, 0, 0, 0), (2, 0, 0, 0, 0)]
        self._table(db, "t", rows)
        distinct = db.execute("SELECT DISTINCT a, b, c, d, e FROM t")
        assert distinct.num_rows == len(rows) == self.CARD + 2
        grouped = db.execute(
            "SELECT a, b, c, d, e, COUNT(*) AS n FROM t GROUP BY a, b, c, d, e"
        )
        assert grouped.num_rows == len(rows)

    def test_five_key_join_matches_only_equal_tuples(self):
        db = Database()
        build = self._diagonal(self.CARD - 1)
        self._table(db, "l", build + [(1, 0, 0, 0, 0)])
        self._table(db, "r", build)
        on = " AND ".join(f"l.{c} = r.{c}" for c in "abcde")
        count = db.execute(f"SELECT COUNT(*) FROM l JOIN r ON {on}").scalar()
        assert count == len(build)
        absent = db.execute(
            f"SELECT COUNT(*) FROM l JOIN r ON {on} WHERE l.a = 1 AND l.b = 0"
        ).scalar()
        assert absent == 0


# -- after rule (1) ---------------------------------------------------------------

WINDOW = (
    "D.sample_time > '2010-01-10T06:00:00' "
    "AND D.sample_time < '2010-01-11T03:00:00'"
)
BY_STATION = (
    "SELECT F.station, AVG(D.sample_value) AS a FROM F "
    f"JOIN D ON F.uri = D.uri WHERE {WINDOW} "
    "GROUP BY F.station ORDER BY F.station"
)


def rounded(rows):
    return [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


@pytest.fixture()
def rewrites(monkeypatch):
    """Every stage-2 plan rule (1) hands the executor, in call order."""
    seen = []
    original = executor_module.apply_ali_rewrite

    def recording(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(executor_module, "apply_ali_rewrite", recording)
    return seen


def make_executor(repo, **kwargs):
    db = Database(verify_plans=True)
    lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(db, RepositoryBinding(repo), **kwargs)


def union_of(plan):
    (union,) = [n for n in plan.walk() if isinstance(n, UnionAll)]
    return union


class TestAccessPathsAfterRuleOne:
    def test_fused_predicate_column_leaves_every_branch(
        self, tiny_repo, ei_db, rewrites
    ):
        executor = make_executor(tiny_repo)
        rows = executor.execute(BY_STATION).rows
        assert rounded(rows) == rounded(ei_db.execute(BY_STATION).rows())
        union = union_of(rewrites[-1])
        assert union.output_keys() == ["d.uri", "d.sample_value"]
        assert union.inputs
        for branch in union.inputs:
            assert isinstance(branch, Mount)
            assert branch.output == union.output
            assert "d.sample_time" in branch.predicate.references()

    def test_cache_scans_and_mounts_in_one_union(self, tiny_repo, ei_db, rewrites):
        cache = IngestionCache(
            CachePolicy.LRU, CacheGranularity.TUPLE, capacity_bytes=10**9
        )
        executor = make_executor(tiny_repo, cache=cache)
        executor.execute(BY_STATION.replace("WHERE ", "WHERE F.station = 'ISK' AND "))
        rows = executor.execute(BY_STATION).rows
        assert rounded(rows) == rounded(ei_db.execute(BY_STATION).rows())
        union = union_of(rewrites[-1])
        kinds = {type(branch) for branch in union.inputs}
        assert kinds == {Mount, CacheScan}
        for branch in union.inputs:
            assert branch.output == union.output
        assert union.output_keys() == ["d.uri", "d.sample_value"]

    def test_top_n_keeps_its_sort_key_and_still_skips(self, tiny_repo, rewrites):
        sql = (
            "SELECT D.sample_value FROM F JOIN D ON F.uri = D.uri "
            f"WHERE {WINDOW} ORDER BY D.sample_time DESC LIMIT 5"
        )
        executor = make_executor(tiny_repo)
        outcome = executor.execute(sql)
        rows = outcome.rows
        assert outcome.trace.counters["early_terminated_branches"] >= 1
        union = union_of(rewrites[-1])
        assert union.output_keys() == ["d.uri", "d.sample_time", "d.sample_value"]
        baseline = make_executor(tiny_repo, top_n_pushdown=False)
        assert rows == baseline.execute(sql).rows
        assert len(rows) == 5

    def test_per_file_strategy(self, tiny_repo, ei_db, rewrites):
        executor = make_executor(tiny_repo, strategy=PER_FILE)
        rows = executor.execute(BY_STATION).rows
        assert rounded(rows) == rounded(ei_db.execute(BY_STATION).rows())
        assert union_of(rewrites[-1]).output_keys() == [
            "d.uri", "d.sample_value",
        ]
