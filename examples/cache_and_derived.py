"""Cache management and derived metadata — the §5 research directions, live.

Part 1 replays an overlapping zoom workload under three cache
configurations (the paper's default discard, file-granular, tuple-granular)
and compares mounts vs cache-scans.

Part 2 turns on derived metadata: summaries collected as a side-effect of
mounting answer later aggregate queries at the breakpoint with zero mounts.

Run: ``python examples/cache_and_derived.py``
"""

import tempfile
import time

from repro.core import (
    CacheGranularity,
    CachePolicy,
    DerivedMetadataStore,
    IngestionCache,
    TwoStageExecutor,
)
from repro.db import Database
from repro.explore import make_query2
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository, RepositorySpec, generate_repository

SPEC = RepositorySpec(
    stations=("ISK", "ANK"),
    channels=("BHE", "BHZ"),
    days=2,
    sample_rate=0.2,
    samples_per_record=3600,
)
DAY = "2010-01-10"

# Narrowing zooms into the same station-day: classic revisiting pattern.
ZOOMS = [
    (f"{DAY}T08:00:00", f"{DAY}T16:00:00"),
    (f"{DAY}T10:00:00", f"{DAY}T14:00:00"),
    (f"{DAY}T11:00:00", f"{DAY}T12:00:00"),
    (f"{DAY}T11:20:00", f"{DAY}T11:40:00"),
]


def run_workload(executor) -> float:
    started = time.perf_counter()
    for window_start, window_end in ZOOMS:
        executor.execute(make_query2("ISK", DAY, window_start, window_end))
    return time.perf_counter() - started


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        generate_repository(root, SPEC)
        repository = FileRepository(root)
        binding = RepositoryBinding(repository)

        def fresh_db() -> Database:
            db = Database()
            lazy_ingest_metadata(db, repository)
            return db

        print("Part 1 — cache configurations over 4 narrowing zooms:\n")
        configs = [
            ("discard (paper default)", IngestionCache(CachePolicy.DISCARD)),
            (
                "unbounded, file-granular",
                IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.FILE),
            ),
            (
                "unbounded, tuple-granular",
                IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE),
            ),
        ]
        for name, cache in configs:
            executor = TwoStageExecutor(fresh_db(), binding, cache=cache)
            seconds = run_workload(executor)
            totals = executor.totals()
            print(
                f"  {name:26}: {seconds * 1000:7.1f} ms, "
                f"{totals['files_mounted']} mounts, "
                f"{totals['cache_scans']} cache-scans, "
                f"cache holds {cache.stats.current_bytes:,} bytes"
            )

        print(
            "\n  (tuple-granular retains only the zoomed interval — less "
            "memory — but\n   a later, wider window would force a re-mount: "
            "the §3 trade-off.)"
        )

        print("\nPart 2 — derived metadata answers summaries without files:\n")
        db = fresh_db()
        derived = DerivedMetadataStore(db)
        executor = TwoStageExecutor(db, binding, derived=derived)
        summary = (
            "SELECT AVG(D.sample_value), MAX(D.sample_value) "
            "FROM F JOIN D ON F.uri = D.uri WHERE F.station = 'ISK'"
        )
        first = executor.execute(summary)
        print(
            f"  first run : {first.trace.total_seconds * 1000:7.1f} ms, "
            f"{first.result.trace.counters['files_mounted']} mounts "
            f"(collected derived metadata as a side-effect)"
        )
        second = executor.execute(summary)
        print(
            f"  second run: {second.trace.total_seconds * 1000:7.1f} ms, "
            f"{second.result.trace.counters['files_mounted']} mounts, "
            f"answered_from_derived={second.breakpoint.answered_from_derived}"
        )
        assert second.rows[0][0] == first.rows[0][0]
        print(f"  identical answers: AVG={first.rows[0][0]:.4f}  ✓")


if __name__ == "__main__":
    main()
