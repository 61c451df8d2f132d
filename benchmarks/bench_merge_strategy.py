"""Experiment A1 — §3's run-time optimization choice.

"(a) merge the actual data taken from each file into comprehensive table(s)
and then apply the higher operators in bulk fashion or (b) run higher
operators on sub-tables and then merge the results."

Both strategies are benchmarked on an aggregation whose data of interest
spans many files. Both must return the same answer.

Run: ``pytest benchmarks/bench_merge_strategy.py --benchmark-only -s``
"""

import pytest

from repro.core import BULK, PER_FILE


AGG_SQL = (
    "SELECT F.channel, AVG(D.sample_value) AS a, COUNT(*) AS n "
    "FROM F JOIN D ON F.uri = D.uri GROUP BY F.channel ORDER BY F.channel"
)


def operators_run(trace):
    return sum(span.name == "op" for span in trace.spans)


@pytest.mark.parametrize("strategy", [BULK, PER_FILE])
def test_strategy(small_env, benchmark, strategy):
    executor = small_env.fresh_executor(strategy=strategy)
    benchmark.pedantic(
        lambda: executor.execute(AGG_SQL), rounds=3, iterations=1
    )


def test_strategies_agree(small_env, benchmark):
    bulk = benchmark.pedantic(
        lambda: small_env.fresh_executor(strategy=BULK).execute(AGG_SQL),
        rounds=1, iterations=1,
    )
    per_file = small_env.fresh_executor(strategy=PER_FILE).execute(AGG_SQL)
    assert bulk.rows == pytest.approx(per_file.rows)
    print(f"\n{len(bulk.breakpoint.files_of_interest)} files aggregated; "
          f"strategies agree on {bulk.rows}")


def test_per_file_peak_memory_is_smaller(small_env, benchmark):
    """Strategy (b)'s advantage: it never materializes the merged table.

    Verified structurally: per-file execution joins at most one file's
    tuples at a time, so the maximum rows flowing through a single join is
    bounded by the largest file, not the union.
    """
    bulk = small_env.fresh_executor(strategy=BULK).execute(AGG_SQL)
    per_file = benchmark.pedantic(
        lambda: small_env.fresh_executor(strategy=PER_FILE).execute(AGG_SQL),
        rounds=1, iterations=1,
    )
    # Same number of tuples mounted either way…
    assert (
        bulk.trace.counters["files_mounted"]
        == per_file.trace.counters["files_mounted"]
    )
    # …but bulk runs far fewer (larger) operators.
    assert operators_run(per_file.trace) > operators_run(bulk.trace)
