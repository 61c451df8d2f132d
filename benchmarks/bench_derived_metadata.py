"""Experiment A3 — derived metadata (§5 "Extending metadata").

"Having some derived metadata already computed and stored in the database
before such a query comes will increase the query performance. It may even
eliminate some of the long running queries."

The bench runs a summary aggregate twice: the first execution mounts files
(and, as a side-effect, collects derived metadata); the second is answered
at the breakpoint from the derived-metadata table without touching a single
file.

Run: ``pytest benchmarks/bench_derived_metadata.py --benchmark-only -s``
"""

import pytest

from repro.core import DerivedMetadataStore
from repro.db import Database
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.core import TwoStageExecutor

SUMMARY_SQL = (
    "SELECT AVG(D.sample_value), MIN(D.sample_value), MAX(D.sample_value) "
    "FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK'"
)


@pytest.fixture(scope="module")
def derived_executor(small_env):
    db = Database()
    lazy_ingest_metadata(db, small_env.repository)
    derived = DerivedMetadataStore(db)
    executor = TwoStageExecutor(
        db, RepositoryBinding(small_env.repository), derived=derived
    )
    return executor


def test_cold_summary_mounts(derived_executor, benchmark):
    """First-contact cost (files must be mounted)."""
    outcome = benchmark.pedantic(
        lambda: derived_executor.execute(SUMMARY_SQL), rounds=1, iterations=1
    )
    assert outcome.result.trace.counters["files_mounted"] > 0


def test_warm_summary_from_derived(derived_executor, benchmark):
    """Second-contact cost: answered from derived metadata, zero mounts."""
    derived_executor.execute(SUMMARY_SQL)  # ensure coverage
    outcome = benchmark(lambda: derived_executor.execute(SUMMARY_SQL))
    assert outcome.breakpoint.answered_from_derived
    assert outcome.result.trace.counters["files_mounted"] == 0


def test_speedup_and_correctness(small_env, benchmark):
    # A fresh store so the first execution genuinely mounts.
    db = Database()
    lazy_ingest_metadata(db, small_env.repository)
    executor = TwoStageExecutor(
        db,
        RepositoryBinding(small_env.repository),
        derived=DerivedMetadataStore(db),
    )
    first = executor.execute(SUMMARY_SQL)
    assert not first.breakpoint.answered_from_derived
    second = benchmark.pedantic(
        lambda: executor.execute(SUMMARY_SQL), rounds=1, iterations=1
    )
    assert second.breakpoint.answered_from_derived
    expected = small_env.ei.execute(SUMMARY_SQL).rows()[0]
    for got in (first.rows[0], second.rows[0]):
        for g, e in zip(got, expected):
            assert g == pytest.approx(e)
    speedup = first.trace.total_seconds / max(
        second.trace.total_seconds, 1e-9
    )
    print(f"\nderived-metadata answer {speedup:.1f}x faster than mounting")
    assert second.trace.total_seconds < first.trace.total_seconds
