"""Experiment A10 — Top-N pushdown with early-terminating mounts.

The ``fuse-top-n`` pass turns ``ORDER BY sample_time … LIMIT k`` into a
first-class TopN node, and the executor's branch monitor uses the F table's
per-file time hulls to skip every union branch that provably cannot reach
the heap threshold — releasing its pending mount before a byte is read.
On the paper's "latest K readings" exploration pattern over a long archive,
only the newest file or two can contribute, so the exhaustive plan's mount
volume is almost entirely wasted: early termination should cut bytes
mounted (and stage-2 time) by >=10x at the headline scale, with
byte-identical answers.

Method: the same latest-K query runs cold with Top-N pushdown on and off,
each on a fresh metadata-only database with cold buffers and an empty
ingestion cache. Every file overlaps the (unbounded) time window, so file
pruning never fires — the branch monitor's hull threshold is the only
available lever.

Run as a script (CI smoke-checks ``--quick --json``)::

    PYTHONPATH=src python benchmarks/bench_topn.py --quick
    PYTHONPATH=src python benchmarks/bench_topn.py --json out.json

or through pytest (``pytest benchmarks/bench_topn.py -s``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Optional, Sequence

from bench_json import add_json_argument, maybe_emit_json
from repro.core import TwoStageExecutor
from repro.db import Database
from repro.harness.setup import materialize_repository
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository, RepositorySpec

# The latest 25 samples of the whole archive, newest first. No WHERE clause:
# every file is of interest, and only the hull threshold can prune.
LATEST_SQL = (
    "SELECT D.sample_time, D.sample_value "
    "FROM F JOIN D ON F.uri = D.uri "
    "ORDER BY D.sample_time DESC LIMIT 25"
)

HEADLINE_MIN_BYTES = 10.0
HEADLINE_MIN_SPEEDUP = 10.0
QUICK_MIN_BYTES = 5.0
QUICK_MIN_SKIPS = 8


def archive_spec() -> RepositorySpec:
    """One channel, 40 day-long files — the headline 'long archive' scale.

    The LIMIT fits inside the newest file, so ~97% of the branches are
    provably skippable.
    """
    return RepositorySpec(
        stations=("ISK",),
        channels=("BHE",),
        days=40,
        sample_rate=0.05,
        samples_per_record=1000,
    )


def quick_spec() -> RepositorySpec:
    """12 files — CI quick scale (seconds, not minutes)."""
    return RepositorySpec(
        stations=("ISK",),
        channels=("BHE",),
        days=12,
        sample_rate=0.05,
        samples_per_record=1000,
    )


@dataclass
class TopNRun:
    """One cold execution's mount/termination accounting."""

    pushdown: bool
    rows: list[tuple]
    files_mounted: int
    bytes_read: int
    early_terminated_branches: int
    early_cancelled_mounts: int
    stage2_seconds: float


def run_cold(repository: FileRepository, pushdown: bool) -> TopNRun:
    """Cold-run the latest-K query: fresh database, cache, and buffers."""
    db = Database()
    lazy_ingest_metadata(db, repository)
    executor = TwoStageExecutor(
        db,
        RepositoryBinding(repository),
        top_n_pushdown=pushdown,
    )
    db.make_cold()
    outcome = executor.execute(LATEST_SQL)
    counters = outcome.trace.counters
    return TopNRun(
        pushdown=pushdown,
        rows=outcome.rows,
        files_mounted=counters["files_mounted"],
        bytes_read=counters["bytes_read"],
        early_terminated_branches=counters["early_terminated_branches"],
        early_cancelled_mounts=counters["early_cancelled_mounts"],
        stage2_seconds=outcome.trace.seconds("stage2"),
    )


def compare(repository: FileRepository) -> tuple[TopNRun, TopNRun]:
    """(exhaustive, pushdown) cold runs; verifies byte-identical answers."""
    exhaustive = run_cold(repository, pushdown=False)
    pushed = run_cold(repository, pushdown=True)
    if pushed.rows != exhaustive.rows:
        raise AssertionError(
            "Top-N pushdown changed the answer: exhaustive -> "
            f"{exhaustive.rows!r}, pushdown -> {pushed.rows!r}"
        )
    return exhaustive, pushed


def reductions(exhaustive: TopNRun, pushed: TopNRun) -> tuple[float, float]:
    """(bytes, stage-2 time) reduction of pushdown vs the exhaustive run."""
    bytes_x = (
        exhaustive.bytes_read / pushed.bytes_read
        if pushed.bytes_read
        else float("inf")
    )
    time_x = (
        exhaustive.stage2_seconds / pushed.stage2_seconds
        if pushed.stage2_seconds
        else float("inf")
    )
    return bytes_x, time_x


def render(exhaustive: TopNRun, pushed: TopNRun) -> str:
    lines = [
        f"{'pushdown':>10} {'files':>6} {'bytes read':>12} "
        f"{'terminated':>11} {'cancelled':>10} {'stage 2':>10}",
    ]
    for run in (exhaustive, pushed):
        lines.append(
            f"{('on' if run.pushdown else 'off'):>10} {run.files_mounted:>6} "
            f"{run.bytes_read:>12,} {run.early_terminated_branches:>11} "
            f"{run.early_cancelled_mounts:>10} "
            f"{run.stage2_seconds * 1000:>8.1f}ms"
        )
    bytes_x, time_x = reductions(exhaustive, pushed)
    lines.append(
        f"early termination mounts {bytes_x:.1f}x fewer payload bytes and "
        f"finishes stage 2 {time_x:.1f}x faster; answers byte-identical"
    )
    return "\n".join(lines)


def check(exhaustive: TopNRun, pushed: TopNRun, quick: bool) -> None:
    min_skips = QUICK_MIN_SKIPS if quick else 2 * QUICK_MIN_SKIPS
    assert pushed.early_terminated_branches >= min_skips, (
        f"expected >={min_skips} early-terminated branches, "
        f"got {pushed.early_terminated_branches}"
    )
    assert pushed.early_cancelled_mounts >= min_skips, (
        f"expected >={min_skips} cancelled mounts, "
        f"got {pushed.early_cancelled_mounts}"
    )
    assert exhaustive.early_terminated_branches == 0
    bytes_x, time_x = reductions(exhaustive, pushed)
    min_bytes = QUICK_MIN_BYTES if quick else HEADLINE_MIN_BYTES
    assert bytes_x >= min_bytes, (
        f"expected >={min_bytes}x fewer bytes mounted, got {bytes_x:.2f}x"
    )
    if not quick:
        # Timing is only asserted at the headline scale, where the ~40:1
        # extraction imbalance dwarfs scheduling noise.
        assert time_x >= HEADLINE_MIN_SPEEDUP, (
            f"expected >={HEADLINE_MIN_SPEEDUP}x faster stage 2, "
            f"got {time_x:.2f}x"
        )


# -- pytest entry points -------------------------------------------------------


def test_topn_quick():
    """Quick: identical answers, early-termination floor (12 files)."""
    repository = materialize_repository(quick_spec())
    exhaustive, pushed = compare(repository)
    print()
    print(render(exhaustive, pushed))
    check(exhaustive, pushed, quick=True)


def test_topn_headline():
    """Headline: >=10x fewer bytes and >=10x faster on a 40-file archive."""
    repository = materialize_repository(archive_spec())
    exhaustive, pushed = compare(repository)
    print()
    print(render(exhaustive, pushed))
    check(exhaustive, pushed, quick=False)


# -- script entry point --------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Top-N pushdown: early-terminating vs exhaustive mounts"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="12-file quick run (seconds); CI uses this",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)

    spec = quick_spec() if args.quick else archive_spec()
    repository = materialize_repository(spec)
    print(
        f"repository: {len(repository.uris())} files, "
        f"{repository.total_bytes():,} bytes"
    )
    exhaustive, pushed = compare(repository)
    print(render(exhaustive, pushed))
    bytes_x, time_x = reductions(exhaustive, pushed)
    maybe_emit_json(
        args.json,
        "topn_pushdown",
        params={
            "quick": args.quick,
            "files": len(repository.uris()),
            "repository_bytes": repository.total_bytes(),
            "sql": LATEST_SQL,
            "min_bytes_reduction": (
                QUICK_MIN_BYTES if args.quick else HEADLINE_MIN_BYTES
            ),
        },
        results={
            "runs": [exhaustive, pushed],
            "bytes_reduction": bytes_x,
            "stage2_speedup": time_x,
        },
    )
    try:
        check(exhaustive, pushed, quick=args.quick)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
