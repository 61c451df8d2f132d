"""Tests for the operator spans of a query's trace, the Figure-3 chart
renderer, and mixed-format repositories."""

import numpy as np
import pytest

from repro.core import TwoStageExecutor
from repro.db import ColumnDef, Database, DataType, TableSchema
from repro.harness.experiments import Fig3Entry
from repro.harness.reporting import render_figure3_chart
from repro.ingest import RepositoryBinding, lazy_ingest_metadata, write_csv_timeseries
from repro.mseed import FileRepository, RepositorySpec, generate_repository


class TestProfiler:
    @pytest.fixture()
    def db(self):
        db = Database()
        db.create_table(
            TableSchema("t", [ColumnDef("k", DataType.INT64),
                              ColumnDef("v", DataType.FLOAT64)])
        )
        db.insert_rows("t", [(i, float(i)) for i in range(100)])
        return db

    def test_profile_collects_operator_tree(self, db):
        result = db.execute("SELECT k, v FROM t WHERE k > 50 ORDER BY v")
        ops = [s.detail for s in result.trace.spans if s.name == "op"]
        assert ops[0] == "PProject"
        assert "PSort" in ops and "PFilter" in ops and "PTableScan(t)" in ops

    def test_depths_nest(self, db):
        result = db.execute("SELECT COUNT(*) FROM t WHERE k > 50")
        depths = [s.depth for s in result.trace.spans if s.name == "op"]
        assert depths[0] == 0
        assert max(depths) >= 2

    def test_rows_and_seconds_recorded(self, db):
        result = db.execute("SELECT k FROM t WHERE k >= 90")
        spans = result.trace.spans
        scan = next(s for s in spans if s.detail == "PTableScan(t)")
        assert scan.rows == 100
        top = spans[0]
        assert top.rows == 10
        assert top.seconds >= scan.seconds  # inclusive timing

    def test_render_profile_text(self, db):
        result = db.execute("SELECT k FROM t LIMIT 3")
        text = result.trace.render()
        assert "PTableScan(t)" in text
        assert "rows" in text and "ms" in text

    def test_each_execute_has_its_own_trace(self, db):
        first = db.execute("SELECT k FROM t")
        second = db.execute("SELECT k FROM t")
        assert first.trace is not second.trace
        assert first.trace.query_id != second.trace.query_id
        assert [s.detail for s in second.trace.spans] == ["PProject", "PTableScan(t)"]


class TestFigure3Chart:
    def entries(self):
        return [
            Fig3Entry("Query 1", "Ei", "COLD", 2.0),
            Fig3Entry("Query 1", "ALi", "COLD", 0.06),
            Fig3Entry("Query 1", "Ei", "HOT", 0.05),
            Fig3Entry("Query 1", "ALi", "HOT", 0.006),
        ]

    def test_chart_structure(self):
        chart = render_figure3_chart(self.entries(), 120)
        assert "log-scale" in chart
        assert chart.count("|") == 8  # two bars edges per row, 4 rows

    def test_log_scaling_orders_bars(self):
        chart = render_figure3_chart(self.entries(), 120).splitlines()
        bar_lengths = {
            line.split()[2]: line.count("■")
            for line in chart[1:]
            if line.strip()
        }
        # Across rows: colder/slower rows have longer bars.
        assert bar_lengths  # rendered something
        chart_text = "\n".join(chart)
        assert "2.0000s" in chart_text

    def test_empty_entries(self):
        assert render_figure3_chart([], 0) == "(no data)"


class TestMixedFormatRepository:
    @pytest.fixture()
    def mixed_repo(self, tmp_path):
        spec = RepositorySpec(
            stations=("ISK",), channels=("BHE",), days=1,
            sample_rate=0.02, samples_per_record=500,
        )
        generate_repository(tmp_path, spec)
        # Add a CSV time-series file from a different instrument.
        write_csv_timeseries(
            tmp_path / "wx" / "AMS.tscsv",
            network="WX", station="AMS", location="", channel="TMP",
            sample_rate=1 / 600.0,
            start_time=1_263_081_600_000_000,  # 2010-01-10
            values=np.linspace(0.0, 10.0, 144),
        )
        return FileRepository(tmp_path, suffix=(".xseed", ".tscsv"))

    def test_uris_span_both_formats(self, mixed_repo):
        uris = mixed_repo.uris()
        assert any(u.endswith(".xseed") for u in uris)
        assert any(u.endswith(".tscsv") for u in uris)

    def test_metadata_load_covers_both(self, mixed_repo):
        db = Database()
        lazy_ingest_metadata(db, mixed_repo)
        stations = set(
            db.catalog.table("F").batch.column("station").to_pylist()
        )
        assert stations == {"ISK", "AMS"}

    def test_queries_mount_per_format(self, mixed_repo):
        db = Database()
        lazy_ingest_metadata(db, mixed_repo)
        executor = TwoStageExecutor(db, RepositoryBinding(mixed_repo))
        seismic = executor.execute(
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK'"
        )
        weather = executor.execute(
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'AMS'"
        )
        assert seismic.rows[0][0] == 1728  # one day at 0.02 Hz
        assert weather.rows[0][0] == 144
