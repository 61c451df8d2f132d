"""Tests for run-time rewrite rule (1): scan(a) → ∪ mount/cache-scan."""

from repro.core import (
    CachePolicy,
    IngestionCache,
    RewriteReport,
    apply_ali_rewrite,
    decompose,
    rewrite_actual_scan,
)
from repro.core.rules import uris_from_uri_predicate
from repro.db.expr import BoolOp, ColumnRef, Comparison, Literal
from repro.db.plan.logical import CacheScan, Mount, Scan, Select, UnionAll
from repro.db.types import DataType


def actual_scan():
    return Scan(
        "D",
        "d",
        [
            ("d.uri", DataType.STRING),
            ("d.sample_time", DataType.TIMESTAMP),
            ("d.sample_value", DataType.FLOAT64),
        ],
    )


class TestRewriteActualScan:
    def test_all_mounts_when_cache_empty(self):
        cache = IngestionCache(CachePolicy.DISCARD)
        report = RewriteReport()
        union = rewrite_actual_scan(
            actual_scan(), None, ["f1", "f2"], cache, report=report
        )
        assert isinstance(union, UnionAll)
        assert all(isinstance(b, Mount) for b in union.inputs)
        assert report.mounts == 2 and report.cache_scans == 0

    def test_cached_files_become_cache_scans(self, tiny_repo):
        from repro.db import Column, ColumnBatch

        cache = IngestionCache(CachePolicy.UNBOUNDED)
        dummy = ColumnBatch(
            ["sample_time"], [Column.from_pylist(DataType.TIMESTAMP, [1])]
        )
        cache.store("f1", dummy)
        union = rewrite_actual_scan(
            actual_scan(), None, ["f1", "f2"], cache
        )
        kinds = [type(b) for b in union.inputs]
        assert kinds == [CacheScan, Mount]

    def test_empty_files_yield_empty_union(self):
        union = rewrite_actual_scan(
            actual_scan(), None, [], IngestionCache()
        )
        assert union.inputs == []
        assert union.output == actual_scan().output

    def test_predicate_fused_into_branches(self):
        predicate = Comparison(
            ">",
            ColumnRef("d.sample_value", DataType.FLOAT64),
            Literal.infer(0.0),
        )
        union = rewrite_actual_scan(
            actual_scan(), predicate, ["f1"], IngestionCache()
        )
        assert union.inputs[0].predicate is predicate

    def test_branch_labels_mention_access_path(self):
        union = rewrite_actual_scan(
            actual_scan(), None, ["f1"], IngestionCache()
        )
        assert "Mount[f1]" in union.inputs[0].label()


class TestUriPredicatePruning:
    def uri_eq(self, value):
        return Comparison(
            "=", ColumnRef("d.uri", DataType.STRING), Literal.infer(value)
        )

    def test_equality_narrows(self):
        files = uris_from_uri_predicate(
            self.uri_eq("f2"), "d.uri", ["f1", "f2", "f3"]
        )
        assert files == ["f2"]

    def test_contradiction_empties(self):
        predicate = BoolOp("and", [self.uri_eq("f1"), self.uri_eq("f2")])
        assert uris_from_uri_predicate(predicate, "d.uri", ["f1", "f2"]) == []

    def test_unrelated_predicate_keeps_all(self):
        other = Comparison(
            ">", ColumnRef("d.sample_value", DataType.FLOAT64), Literal.infer(1.0)
        )
        assert uris_from_uri_predicate(other, "d.uri", ["f1"]) == ["f1"]

    def test_none_predicate(self):
        assert uris_from_uri_predicate(None, "d.uri", ["f1"]) == ["f1"]


class TestApplyAliRewrite:
    def test_full_plan_rewrite(self, ali_db, query1):
        plan = ali_db.optimize(ali_db.bind_sql(query1), metadata_first=True)
        decomposition = decompose(plan, ali_db.catalog.is_metadata_table)
        report = RewriteReport()
        rewritten = apply_ali_rewrite(
            decomposition.qs,
            {"d": ["f1", "f2"]},
            IngestionCache(),
            report=report,
        )
        unions = [n for n in rewritten.walk() if isinstance(n, UnionAll)]
        assert len(unions) == 1
        assert report.mounts == 2
        # The fused selection came from the Select(Scan(D)) shape.
        assert all(b.predicate is not None for b in unions[0].inputs)
        # No Select(Scan(actual)) remains.
        for node in rewritten.walk():
            if isinstance(node, Select):
                assert not isinstance(node.child, Scan) or \
                    node.child.table_name != "D"

    def test_aliases_not_in_map_untouched(self, ali_db, query1):
        plan = ali_db.optimize(ali_db.bind_sql(query1), metadata_first=True)
        decomposition = decompose(plan, ali_db.catalog.is_metadata_table)
        rewritten = apply_ali_rewrite(
            decomposition.qs, {}, IngestionCache()
        )
        scans = [n for n in rewritten.walk() if isinstance(n, Scan)]
        assert any(s.table_name == "D" for s in scans)

    def test_uri_pruning_reported(self, ali_db, tiny_repo):
        target = tiny_repo.uris()[0]
        sql = f"SELECT COUNT(*) FROM D WHERE uri = '{target}'"
        plan = ali_db.optimize(ali_db.bind_sql(sql), metadata_first=True)
        decomposition = decompose(plan, ali_db.catalog.is_metadata_table)
        report = RewriteReport()
        rewritten = apply_ali_rewrite(
            decomposition.qs,
            {"d": tiny_repo.uris()},
            IngestionCache(),
            report=report,
        )
        union = next(n for n in rewritten.walk() if isinstance(n, UnionAll))
        assert len(union.inputs) == 1
        assert report.pruned_by_uri_predicate == len(tiny_repo) - 1
