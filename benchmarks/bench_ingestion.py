"""Experiment X1 — §4's up-front ingestion claims.

* "up-front ingestion time is reduced by orders of magnitude" (Ei total vs
  ALi metadata-only),
* index building is a multiple of loading time,
* "ALi provides more space-efficiency".

Run: ``pytest benchmarks/bench_ingestion.py --benchmark-only -s``
"""

from repro.db import Database
from repro.harness import ingestion_report
from repro.harness.reporting import render_ingestion
from repro.ingest import eager_ingest


def test_ingestion_report(env, benchmark):
    report = benchmark.pedantic(ingestion_report, args=(env,), rounds=1, iterations=1)
    print()
    print(render_ingestion(report))
    assert report.speedup > 3, "initialization speedup should be large"
    assert report.space_ratio > 50
    assert report.ei_index_seconds > 0
    if len(env.repository) >= 100:
        # "reduced by orders of magnitude" holds at the headline scale.
        assert report.speedup > 25
        assert report.space_ratio > 1000


def test_index_build_cost(env, benchmark):
    """Index construction alone — the dominant share of Ei's up-front cost."""
    loaded = Database()
    eager_ingest(loaded, env.repository, build_indexes=False)

    def build():
        # Rebuild from scratch each round: drop then recreate.
        loaded.catalog._indexes.clear()
        for table in ("F", "R", "D"):
            loaded.build_key_indexes(table)

    benchmark.pedantic(build, rounds=2, iterations=1)


def test_metadata_scan_scales_with_records_not_samples(env, benchmark):
    """Header-only scans cost O(records); verify by timing one pass."""
    from repro.ingest import default_registry

    registry = default_registry()

    def scan_all():
        total = 0
        for uri in env.repository.uris():
            path = env.repository.path_of(uri)
            extracted = registry.for_path(path).extract_metadata(path, uri)
            total += len(extracted.records)
        return total

    records = benchmark.pedantic(scan_all, rounds=3, iterations=1)
    assert records == env.ali_report.records
