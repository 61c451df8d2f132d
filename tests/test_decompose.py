"""Tests for plan decomposition into Qf and Qs."""

from repro.core import decompose
from repro.db.plan.logical import Aggregate, ResultScan, Scan


def prepared(db, sql):
    plan = db.optimize(db.bind_sql(sql), metadata_first=True)
    return decompose(plan, db.catalog.is_metadata_table)


class TestQuery1Decomposition:
    def test_qf_contains_only_metadata_scans(self, ali_db, query1):
        decomposition = prepared(ali_db, query1)
        assert decomposition.qf is not None
        scans = [n for n in decomposition.qf.walk() if isinstance(n, Scan)]
        assert {s.table_name for s in scans} == {"F", "R"}

    def test_qs_references_result_scan(self, ali_db, query1):
        decomposition = prepared(ali_db, query1)
        assert decomposition.qs is not None
        result_scans = [
            n for n in decomposition.qs.walk() if isinstance(n, ResultScan)
        ]
        assert len(result_scans) == 1
        assert result_scans[0].tag == decomposition.result_tag

    def test_qs_keeps_actual_scan(self, ali_db, query1):
        decomposition = prepared(ali_db, query1)
        scans = [n for n in decomposition.qs.walk() if isinstance(n, Scan)]
        assert {s.table_name for s in scans} == {"D"}

    def test_actual_scan_linked_to_qf_uri(self, ali_db, query1):
        decomposition = prepared(ali_db, query1)
        (info,) = decomposition.actual_scans
        assert info.table_name == "D"
        assert info.uri_key == "d.uri"
        assert info.link_key in decomposition.qf.output_keys()
        assert info.link_key.endswith(".uri")

    def test_not_metadata_only(self, ali_db, query1):
        assert not prepared(ali_db, query1).metadata_only

    def test_explain_marks_qf(self, ali_db, query1):
        decomposition = prepared(ali_db, query1)
        assert "[Qf]" in decomposition.explain()


class TestMetadataOnlyQueries:
    def test_whole_plan_is_stage1(self, ali_db):
        decomposition = prepared(
            ali_db, "SELECT station, COUNT(*) FROM F GROUP BY station"
        )
        assert decomposition.metadata_only
        assert decomposition.qf is decomposition.plan
        assert decomposition.qs is None

    def test_metadata_join_still_single_stage(self, ali_db):
        decomposition = prepared(
            ali_db,
            "SELECT F.station, R.nsamples FROM F JOIN R ON F.uri = R.uri",
        )
        assert decomposition.metadata_only


class TestNoMetadataQueries:
    def test_pure_actual_query_has_no_qf(self, ali_db):
        decomposition = prepared(ali_db, "SELECT AVG(sample_value) FROM D")
        assert decomposition.qf is None
        assert not decomposition.metadata_only
        (info,) = decomposition.actual_scans
        assert info.link_key is None


class TestAggregatesAboveMetadata:
    def test_aggregate_over_metadata_branch(self, ali_db):
        """An aggregate whose input is all-metadata belongs to Qf."""
        decomposition = prepared(
            ali_db, "SELECT MAX(nsamples) FROM R"
        )
        assert decomposition.metadata_only
        assert any(
            isinstance(n, Aggregate) for n in decomposition.qf.walk()
        )
