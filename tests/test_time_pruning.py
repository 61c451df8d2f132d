"""Tests for metadata time-span file pruning (the §5 metadata-exploitation
extension: a file whose [start_time, end_time] is disjoint from the query's
sample-time interval cannot contribute rows and is never mounted)."""

import pytest

from repro.core import TwoStageExecutor
from repro.ingest import RepositoryBinding


@pytest.fixture()
def pruning_executor(ali_db, tiny_repo):
    """Pruning is opt-in (the paper's ALi does not do it)."""
    return TwoStageExecutor(
        ali_db, RepositoryBinding(tiny_repo, prune_by_time=True)
    )


def narrow_window_sql():
    """Only D.sample_time constrains the query — without pruning, every
    file would be of interest (no metadata predicate at all)."""
    return (
        "SELECT COUNT(*) FROM D "
        "WHERE sample_time > '2010-01-10T10:00:00' "
        "AND sample_time < '2010-01-10T11:00:00'"
    )


class TestPruning:
    def test_files_pruned_to_overlapping_day(self, pruning_executor, tiny_repo):
        outcome = pruning_executor.execute(narrow_window_sql())
        # Only day-1 files (4 of 8) overlap the window.
        assert outcome.breakpoint.n_files == 4
        assert outcome.breakpoint.pruned_by_time == 4
        assert outcome.result.trace.counters["files_mounted"] == 4

    def test_answer_matches_eager(self, pruning_executor, ei_db):
        sql = narrow_window_sql()
        assert pruning_executor.execute(sql).rows == ei_db.execute(sql).rows()

    def test_disjoint_window_mounts_nothing(self, pruning_executor):
        sql = (
            "SELECT COUNT(*) FROM D "
            "WHERE sample_time > '2031-01-01T00:00:00' "
            "AND sample_time < '2031-01-02T00:00:00'"
        )
        outcome = pruning_executor.execute(sql)
        assert outcome.breakpoint.n_files == 0
        assert outcome.result.trace.counters["files_mounted"] == 0
        assert outcome.rows == [(0,)]

    def test_combines_with_metadata_predicates(self, pruning_executor):
        sql = (
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK' "
            "AND D.sample_time > '2010-01-11T00:00:00' "
            "AND D.sample_time < '2010-01-11T01:00:00'"
        )
        outcome = pruning_executor.execute(sql)
        # station narrows to 4 files; the time window to day 2's two.
        assert outcome.breakpoint.n_files == 2
        assert outcome.breakpoint.pruned_by_time == 2

    def test_summary_mentions_pruning(self, pruning_executor):
        outcome = pruning_executor.execute(narrow_window_sql())
        assert "pruned via metadata time spans" in outcome.breakpoint.summary()

    def test_unbounded_interval_prunes_nothing(self, pruning_executor, tiny_repo):
        outcome = pruning_executor.execute(
            "SELECT COUNT(*) FROM D WHERE sample_value > 1e18"
        )
        assert outcome.breakpoint.pruned_by_time == 0
        assert outcome.breakpoint.n_files == len(tiny_repo)


class TestDefaultOff:
    def test_default_matches_paper_behaviour(self, executor, tiny_repo):
        """Without opting in, every candidate file stays of interest — the
        paper's ALi."""
        outcome = executor.execute(narrow_window_sql())
        assert outcome.breakpoint.pruned_by_time == 0
        assert outcome.breakpoint.n_files == len(tiny_repo)

    def test_answers_identical_with_and_without(self, executor, pruning_executor):
        sql = narrow_window_sql()
        assert (
            pruning_executor.execute(sql).rows == executor.execute(sql).rows
        )
