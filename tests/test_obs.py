"""One query, one trace (repro/obs.py).

Pins the span names and nesting of a two-stage execution, the counters
against the mount service's own, the per-query identity of served queries,
and the stage-2 accounting of strategy (b), multi-stage execution and a
Top-N re-run: one ``stage2`` span over every plan stage 2 ran, and the
answer's I/O over the whole execution.
"""

import pytest

from repro.core import (
    BULK,
    PER_FILE,
    CachePolicy,
    IngestionCache,
    MountSpan,
    MultiStageExecutor,
    TwoStageExecutor,
)
from repro.core.topn import TopNBranchMonitor
from repro.ingest import RepositoryBinding
from repro.obs import QueryTrace
from repro.serve import QueryService

ISK_AVG = (
    "SELECT AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
    "WHERE F.station = 'ISK'"
)
LATEST = (
    "SELECT D.sample_time, D.sample_value FROM F JOIN D ON F.uri = D.uri "
    "ORDER BY D.sample_time DESC LIMIT 5"
)


def parent_of(trace, span):
    """The span ``span`` is nested in (None at the top level)."""
    index = next(i for i, s in enumerate(trace.spans) if s is span)
    for earlier in reversed(trace.spans[:index]):
        if earlier.depth == span.depth - 1:
            return earlier
    return None


def children(trace, span):
    """The spans directly nested in ``span``."""
    index = next(i for i, s in enumerate(trace.spans) if s is span)
    nested = []
    for later in trace.spans[index + 1:]:
        if later.depth <= span.depth:
            break
        if later.depth == span.depth + 1:
            nested.append(later)
    return nested


def stage_of(trace, span):
    while span.depth > 0:
        span = parent_of(trace, span)
    return span.name


def top_level(trace):
    return [s.name for s in trace.spans if s.depth == 0]


class TestSpans:
    def test_a_two_stage_query_nests_ops_and_mounts_under_its_stages(
        self, fresh_ali_db, tiny_repo
    ):
        executor = TwoStageExecutor(fresh_ali_db, RepositoryBinding(tiny_repo))
        outcome = executor.execute(ISK_AVG)
        trace = outcome.trace
        assert trace is outcome.result.trace
        assert top_level(trace) == ["compile", "stage1", "breakpoint", "stage2"]

        ops = [s for s in trace.spans if s.name == "op"]
        assert {stage_of(trace, s) for s in ops} == {"stage1", "stage2"}
        assert all(s.rows is not None for s in ops)

        mounts = [s for s in trace.spans if isinstance(s, MountSpan)]
        assert sorted(s.detail for s in mounts) == sorted(
            outcome.breakpoint.files_of_interest
        )
        for span in mounts:
            assert span.name == "mount"
            assert stage_of(trace, span) == "stage2"
            assert parent_of(trace, span).detail.startswith("PMount")
            assert span.worker == 0  # serial: every take extracts inline
            assert span.io_seconds > 0

        stats = executor.mounts.stats
        assert trace.counters["files_mounted"] == stats.mounts == len(mounts)
        assert trace.counters["cache_scans"] == stats.cache_scans == 0
        assert outcome.result.elapsed_cpu == trace.total_seconds

    def test_cache_scans_count_what_the_mount_service_served(
        self, fresh_ali_db, tiny_repo
    ):
        executor = TwoStageExecutor(
            fresh_ali_db, RepositoryBinding(tiny_repo),
            cache=IngestionCache(CachePolicy.UNBOUNDED),
        )
        first = executor.execute(ISK_AVG)
        second = executor.execute(ISK_AVG)
        stats = executor.mounts.stats
        assert first.trace.counters["files_mounted"] == stats.mounts > 0
        assert second.trace.counters["files_mounted"] == 0
        assert second.trace.counters["cache_scans"] == stats.cache_scans
        assert stats.cache_scans == stats.mounts
        assert not [s for s in second.trace.spans if isinstance(s, MountSpan)]

    def test_render_shows_the_tree_the_mounts_and_the_counters(
        self, fresh_ali_db, tiny_repo
    ):
        executor = TwoStageExecutor(fresh_ali_db, RepositoryBinding(tiny_repo))
        trace = executor.execute(ISK_AVG).trace
        lines = trace.render().splitlines()
        assert lines[0].startswith("compile  [")
        assert any(line.startswith("stage2  [") for line in lines)
        assert any(
            line.startswith("      ") and "PMount(D)" in line and "rows" in line
            for line in lines
        )
        assert any("mount " in line and "on worker 0" in line for line in lines)
        # A fresh executor compiles its first query of a shape in full.
        assert lines[-1] == "counters: files_mounted=4, template_misses=1"

    def test_a_metadata_only_answer_counts_its_compile_time(self, executor):
        outcome = executor.execute("SELECT COUNT(*) FROM F")
        trace = outcome.trace
        assert top_level(trace) == ["compile", "stage1"]
        assert outcome.result.elapsed_cpu == trace.total_seconds
        assert outcome.result.elapsed_cpu >= (
            trace.seconds("compile") + trace.seconds("stage1")
        )

    def test_every_execution_owns_one_trace(self, executor):
        first, second = executor.execute(ISK_AVG), executor.execute(ISK_AVG)
        assert first.trace is not second.trace
        assert first.trace.query_id != second.trace.query_id
        assert QueryTrace().tenant == ""


class TestServedTraces:
    def test_concurrent_queries_carry_their_own_id_and_tenant(self, tiny_repo):
        with QueryService(tiny_repo, mount_workers=2) as service:
            futures = {
                tenant: service.client(tenant).submit(ISK_AVG)
                for tenant in ("alice", "bob")
            }
            traces = {t: f.result(timeout=60).trace for t, f in futures.items()}
        assert {t: trace.tenant for t, trace in traces.items()} == {
            "alice": "alice", "bob": "bob"
        }
        assert traces["alice"].query_id != traces["bob"].query_id
        for trace in traces.values():
            assert top_level(trace) == [
                "compile", "stage1", "breakpoint", "stage2"
            ]


class TestStageTwoAccounting:
    def test_per_file_reads_what_bulk_reads(self, fresh_ali_db, tiny_repo):
        """Every partial's I/O reaches a strategy (b) answer."""
        answers = {}
        for strategy in (BULK, PER_FILE):
            fresh_ali_db.make_cold()
            executor = TwoStageExecutor(
                fresh_ali_db, RepositoryBinding(tiny_repo), strategy=strategy
            )
            answers[strategy] = executor.execute(ISK_AVG)
        bulk, per_file = answers[BULK], answers[PER_FILE]
        assert per_file.rows == pytest.approx(bulk.rows)
        assert per_file.result.io.bytes_read == bulk.result.io.bytes_read > 0
        # One stage-2 span holds every partial plan, not the remainder alone.
        stage2 = next(s for s in per_file.trace.spans if s.name == "stage2")
        plans = children(per_file.trace, stage2)
        assert len(plans) == per_file.trace.counters["files_mounted"] + 1

    def test_multi_stage_reads_what_bulk_reads(self, fresh_ali_db, tiny_repo):
        fresh_ali_db.make_cold()
        bulk = TwoStageExecutor(
            fresh_ali_db, RepositoryBinding(tiny_repo)
        ).execute(ISK_AVG)
        fresh_ali_db.make_cold()
        staged = MultiStageExecutor(
            TwoStageExecutor(fresh_ali_db, RepositoryBinding(tiny_repo)),
            batch_files=1,
        ).execute(ISK_AVG)
        assert staged.result.io.bytes_read == bulk.result.io.bytes_read > 0
        assert top_level(staged.result.trace) == [
            "compile", "stage1", "breakpoint", "stage2"
        ]

    def test_a_top_n_rerun_counts_both_passes(
        self, fresh_ali_db, tiny_repo, monkeypatch
    ):
        fresh_ali_db.make_cold()
        exhaustive = TwoStageExecutor(
            fresh_ali_db, RepositoryBinding(tiny_repo), top_n_pushdown=False
        ).execute(LATEST)

        monkeypatch.setattr(TopNBranchMonitor, "safe", lambda self: False)
        fresh_ali_db.make_cold()
        rerun = TwoStageExecutor(
            fresh_ali_db, RepositoryBinding(tiny_repo)
        ).execute(LATEST)
        assert rerun.rows == exhaustive.rows

        trace = rerun.trace
        stage2 = next(s for s in trace.spans if s.name == "stage2")
        passes = children(trace, stage2)
        assert len(passes) == 2  # the monitored pass and the exhaustive one
        assert stage2.seconds >= sum(p.seconds for p in passes)
        assert rerun.result.io.bytes_read == exhaustive.result.io.bytes_read
