"""Experiment A2 — cache policy and granularity trade-offs (§3/§5).

"While caching ingested data might avoid repeated mounting of the same
files, the chosen approach inherently ensures up-to-date data. These
require a detailed study" — this bench is that study: a repeated/overlapping
zoom workload runs under {discard, LRU, unbounded} × {file, tuple}
granularity, reporting hit rates and total time.

Run: ``pytest benchmarks/bench_cache_policies.py --benchmark-only -s``
"""

import pytest

from repro.core import CacheGranularity, CachePolicy, IngestionCache
from repro.db.types import format_timestamp, parse_timestamp
from repro.explore.workload import make_query2


def _zoom_workload(env, repeats=3):
    """Overlapping zooms into one station-day — the cache-friendly pattern
    of real exploration (revisiting the same files with narrowing windows)."""
    day = env.queries.day
    base = parse_timestamp(day) + 20 * 3600 * 1_000_000
    queries = []
    for _ in range(repeats):
        for width_minutes in (120, 60, 30, 15):
            lo = base
            hi = base + width_minutes * 60 * 1_000_000
            queries.append(
                make_query2(
                    "ISK", day, format_timestamp(lo), format_timestamp(hi)
                )
            )
    return queries


CONFIGS = [
    pytest.param(CachePolicy.DISCARD, CacheGranularity.FILE, None,
                 id="discard"),
    pytest.param(CachePolicy.UNBOUNDED, CacheGranularity.FILE, None,
                 id="unbounded-file"),
    pytest.param(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE, None,
                 id="unbounded-tuple"),
    pytest.param(CachePolicy.LRU, CacheGranularity.FILE, 50_000_000,
                 id="lru-file"),
    pytest.param(CachePolicy.LRU, CacheGranularity.TUPLE, 50_000_000,
                 id="lru-tuple"),
]


@pytest.mark.parametrize("policy,granularity,capacity", CONFIGS)
def test_cache_config(small_env, benchmark, policy, granularity, capacity):
    queries = _zoom_workload(small_env)

    def run():
        cache = IngestionCache(policy, granularity, capacity)
        executor = small_env.fresh_executor(cache=cache)
        for sql in queries:
            executor.execute(sql)
        return executor

    executor = benchmark.pedantic(run, rounds=2, iterations=1)
    totals = executor.totals()
    print(
        f"\n{policy.value}/{granularity.value}: "
        f"{totals['files_mounted']} mounts, {totals['cache_scans']} cache-scans, "
        f"lookup hit rate {executor.cache.stats.hit_rate():.1%}, "
        f"cache {executor.cache.stats.current_bytes:,} bytes"
    )


def test_caching_reduces_mounts(small_env, benchmark):
    queries = _zoom_workload(small_env)

    def mounts_under(policy, granularity=CacheGranularity.FILE):
        executor = small_env.fresh_executor(
            cache=IngestionCache(policy, granularity)
        )
        for sql in queries:
            executor.execute(sql)
        return executor.totals()["files_mounted"]

    discard = benchmark.pedantic(
        mounts_under, args=(CachePolicy.DISCARD,), rounds=1, iterations=1
    )
    unbounded = mounts_under(CachePolicy.UNBOUNDED)
    assert unbounded < discard
    # With a warm unbounded cache, each file mounts exactly once.
    assert unbounded == 3  # ISK has 3 channel-files on that day


def test_tuple_cache_narrowing_zooms_hit(small_env, benchmark):
    """Narrowing zooms are covered by the first (wider) interval, so the
    tuple-granular cache serves every repeat from memory."""
    queries = _zoom_workload(small_env, repeats=1)
    executor = small_env.fresh_executor(
        cache=IngestionCache(CachePolicy.UNBOUNDED, CacheGranularity.TUPLE)
    )

    def run_all():
        for sql in queries:
            executor.execute(sql)

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    totals = executor.totals()
    assert totals["cache_scans"] > 0
    assert totals["files_mounted"] == 3
