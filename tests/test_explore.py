"""Tests for the exploration layer: detection, workloads, sessions."""

import numpy as np
import pytest

from repro.core import TwoStageExecutor
from repro.core.cache import CacheGranularity, CachePolicy, IngestionCache
from repro.db.sql.parser import parse_sql
from repro.explore import (
    ExplorationSession,
    detect_events,
    make_query1,
    make_query2,
    random_exploration,
    sta_lta,
    sweep_queries,
)
from repro.ingest import RepositoryBinding


class TestStaLta:
    def synthetic_burst(self):
        rng = np.random.default_rng(0)
        signal = rng.normal(0, 1.0, 2000)
        signal[1200:1300] += 40.0 * np.exp(-np.arange(100) / 30.0)
        return signal

    def test_ratio_peaks_at_burst(self):
        ratio = sta_lta(self.synthetic_burst(), 10, 200)
        assert ratio[:200].max() == 0.0  # warm-up region
        assert np.argmax(ratio) >= 1200

    def test_detect_events_finds_burst(self):
        events = detect_events(self.synthetic_burst(), 10, 200,
                               on_threshold=5.0)
        assert len(events) == 1
        assert 1190 <= events[0].start_index <= 1310
        assert events[0].peak_ratio > 5.0

    def test_quiet_signal_no_events(self):
        rng = np.random.default_rng(1)
        events = detect_events(rng.normal(0, 1.0, 2000), 10, 200,
                               on_threshold=8.0)
        assert events == []

    def test_event_open_at_end(self):
        signal = np.ones(500) * 0.1
        signal[450:] = 100.0
        events = detect_events(signal, 10, 100, on_threshold=4.0)
        assert events and events[-1].end_index == 499

    def test_window_validation(self):
        with pytest.raises(ValueError):
            sta_lta(np.ones(10), 5, 5)
        with pytest.raises(ValueError):
            sta_lta(np.ones(10), 0, 5)


class TestQueryTemplates:
    def test_query1_parses_and_mentions_predicates(self):
        sql = make_query1(
            "ISK", "BHE", "2010-01-12",
            "2010-01-12T22:15:00", "2010-01-12T22:15:02",
        )
        stmt = parse_sql(sql)
        assert [j.table.name for j in stmt.joins] == ["R", "D"]
        assert "AVG" in sql.upper()
        assert "'ISK'" in sql and "'BHE'" in sql

    def test_query2_selects_waveform(self):
        sql = make_query2(
            "ISK", "2010-01-12",
            "2010-01-12T22:00:00", "2010-01-12T22:30:00",
        )
        stmt = parse_sql(sql)
        assert len(stmt.items) == 2
        assert "channel" not in sql.lower().split("where")[1].split("and")[0]

    def test_templates_run_on_engine(self, executor):
        sql = make_query1(
            "ISK", "BHE", "2010-01-10",
            "2010-01-10T10:00:00", "2010-01-10T11:00:00",
        )
        outcome = executor.execute(sql)
        assert outcome.result.num_rows == 1


class TestSweepQueries:
    def test_fraction_zero_matches_nothing(self, executor):
        queries = sweep_queries(
            ["ISK", "ANK"], ["BHE", "BHZ"], "2010-01-10",
            "2010-01-10T10:00:00", "2010-01-10T11:00:00",
            fractions=[0.0],
        )
        outcome = executor.execute(queries[0][1])
        assert outcome.breakpoint.n_files == 0

    def test_fraction_one_touches_all_pairs(self, executor, tiny_repo):
        queries = sweep_queries(
            ["ISK", "ANK"], ["BHE", "BHZ"], "2010-01-10",
            "2010-01-10T10:00:00", "2010-01-10T11:00:00",
            fractions=[1.0],
        )
        outcome = executor.execute(queries[0][1])
        # 4 station-channel pairs × the day's file
        assert outcome.breakpoint.n_files == 4

    def test_fractions_monotone_in_files(self, executor):
        queries = sweep_queries(
            ["ISK", "ANK"], ["BHE", "BHZ"], "2010-01-10",
            "2010-01-10T10:00:00", "2010-01-10T11:00:00",
            fractions=[0.0, 0.5, 1.0],
        )
        counts = [
            executor.execute(sql).breakpoint.n_files for _, sql in queries
        ]
        assert counts == sorted(counts)


class TestRandomExploration:
    def test_deterministic(self):
        a = random_exploration(["ISK"], ["BHE"], "2010-01-10", 2, 10, seed=3)
        b = random_exploration(["ISK"], ["BHE"], "2010-01-10", 2, 10, seed=3)
        assert [s.sql for s in a] == [s.sql for s in b]

    def test_step_count(self):
        steps = random_exploration(["ISK"], ["BHE"], "2010-01-10", 2, 7)
        assert len(steps) == 7

    def test_all_queries_parse(self):
        for step in random_exploration(
            ["ISK", "ANK"], ["BHE", "BHZ"], "2010-01-10", 2, 20
        ):
            parse_sql(step.sql)

    def test_first_step_is_quick_look(self):
        steps = random_exploration(["ISK"], ["BHE"], "2010-01-10", 2, 3)
        assert steps[0].kind.value == "quick_look"


class TestSession:
    def test_history_and_accounting(self, ali_db, tiny_repo):
        executor = TwoStageExecutor(ali_db, RepositoryBinding(tiny_repo))
        session = ExplorationSession(executor, setup_seconds=1.5)
        value = session.quick_look("ISK", "BHE", "2010-01-10")
        assert isinstance(value, float)
        result = session.zoom(
            "ISK", "2010-01-10",
            "2010-01-10T10:00:00", "2010-01-10T10:30:00",
        )
        assert result.num_rows > 0
        assert len(session.history) == 2
        assert session.history[0].files_mounted >= 1
        assert session.total_seconds > session.setup_seconds
        assert session.data_to_insight_seconds >= 1.5
        report = session.report()
        assert "data-to-insight" in report and "quick look" in report

    def test_session_over_plain_database(self, ei_db):
        session = ExplorationSession(ei_db)
        avg = session.average(
            "ISK", "BHE", "2010-01-10",
            "2010-01-10T10:00:00", "2010-01-10T11:00:00",
        )
        assert isinstance(avg, float)
        assert session.history[0].files_mounted == 0

    def test_same_answers_through_both_engines(self, ei_db, executor):
        args = (
            "ISK", "BHE", "2010-01-10",
            "2010-01-10T10:00:00", "2010-01-10T11:00:00",
        )
        ei_session = ExplorationSession(ei_db)
        ali_session = ExplorationSession(executor)
        assert ei_session.average(*args) == pytest.approx(
            ali_session.average(*args)
        )

    def test_prefetching_session_answers_alike(self, ali_db, tiny_repo):
        """A sliding walk feeds the predictor; what it warms never changes
        an answer."""
        executor = TwoStageExecutor(
            ali_db,
            RepositoryBinding(tiny_repo),
            cache=IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE),
        )
        session = ExplorationSession(executor, prefetch=True)
        plain = ExplorationSession(TwoStageExecutor(
            ali_db, RepositoryBinding(tiny_repo)
        ))
        try:
            for hour in ("10", "11", "12"):
                args = (
                    "ISK", "BHE", "2010-01-10",
                    f"2010-01-10T{hour}:00:00", f"2010-01-10T{hour}:30:00",
                )
                assert session.average(*args) == plain.average(*args)
            session.prefetcher.flush()
            assert session.prefetcher.stats.observed == 3
        finally:
            session.close()

    def test_prefetch_needs_a_two_stage_engine(self, ei_db):
        with pytest.raises(ValueError, match="TwoStageExecutor"):
            ExplorationSession(ei_db, prefetch=True)
