"""Experiment A11 — the remote backend's two quantitative claims.

1. **Ranged GETs**: on a narrow time window, the selective mount path
   moves at least ``MIN_RANGED_REDUCTION``x fewer remote bytes than
   whole-object GETs — byte maps turn into HTTP-style range requests,
   so a 30-minute look at a day-long file stops downloading the day.
2. **Resilience overhead**: the always-on resilience stack (retry
   ladder, retry budget, circuit breaker) costs at most
   ``MAX_OVERHEAD_FRACTION`` extra wall time on a fault-free run vs the
   bare single-attempt transport — insurance that is free until it pays.

Answers are asserted byte-identical across every configuration: the
transport is a performance/availability lever, never a semantics lever.

Run as a script (CI smoke-checks ``--quick --json``)::

    PYTHONPATH=src python benchmarks/bench_remote.py --quick
    PYTHONPATH=src python benchmarks/bench_remote.py --json out.json

or through pytest (``pytest benchmarks/bench_remote.py -s``).
"""

from __future__ import annotations

import argparse
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from bench_json import add_json_argument, maybe_emit_json
from repro.core import TwoStageExecutor
from repro.core.metastore import MetadataStore
from repro.db import Database
from repro.db.types import format_timestamp, parse_timestamp
from repro.harness.setup import materialize_repository
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import RepositorySpec
from repro.remote import (
    NetworkProfile,
    RemoteRepository,
    SimulatedObjectStore,
    TransportPolicy,
)

MIN_RANGED_REDUCTION = 5.0  # whole/ranged remote-bytes ratio floor
MAX_OVERHEAD_FRACTION = 0.02  # fault-free resilience tax ceiling

_MINUTE_US = 60 * 1_000_000


def dense_spec() -> RepositorySpec:
    """9 day-long files x 96 records: narrow windows leave most untouched."""
    return RepositorySpec(
        stations=("ISK", "ANK", "IZM"),
        channels=("BHZ",),
        days=3,
        sample_rate=0.5,
        samples_per_record=450,
    )


def quick_spec() -> RepositorySpec:
    """2 day-long files — CI smoke scale (seconds, not minutes)."""
    return RepositorySpec(
        stations=("ISK", "ANK"),
        channels=("BHZ",),
        days=1,
        sample_rate=0.5,
        samples_per_record=450,
    )


def _narrow_sql(spec: RepositorySpec) -> str:
    """A 30-minute look into day-long files: the explorer's query shape."""
    day_us = parse_timestamp(spec.start_day)
    lo = day_us + 600 * _MINUTE_US
    hi = lo + 30 * _MINUTE_US
    return (
        "SELECT F.station, COUNT(*) AS n, SUM(D.sample_value) AS s "
        "FROM F JOIN D ON F.uri = D.uri "
        f"WHERE D.sample_time >= '{format_timestamp(lo)}' "
        f"AND D.sample_time < '{format_timestamp(hi)}' "
        "GROUP BY F.station ORDER BY F.station"
    )


def _harvest_metadata(objects_dir: Path, workdir: Path) -> Path:
    """Session 1: walk the endpoint once, persist the positional metadata.

    Every later session reuses these rows, so its first answer hits the
    endpoint cold — exactly the regime where ranged GETs pay off.
    """
    path = workdir / "metastore.json"
    store = SimulatedObjectStore("seis-eu", objects_dir)
    repo = RemoteRepository(store)
    db = Database()
    lazy_ingest_metadata(db, repo, metastore=MetadataStore(path))
    return path


# -- claim 1: ranged GETs vs whole-object GETs ---------------------------------


@dataclass
class RemoteRun:
    """One fresh-session query that holds nothing of the endpoint yet."""

    mode: str  # "whole" | "ranged"
    rows: list[tuple]
    remote_bytes: int
    ranged_gets: int
    whole_fetches: int
    wall_seconds: float


def _fresh_session(
    objects_dir: Path,
    metastore_path: Path,
    sql: str,
    mode: str,
    selective: bool,
    policy: Optional[TransportPolicy] = None,
    profile: Optional[NetworkProfile] = None,
) -> RemoteRun:
    store = SimulatedObjectStore(
        "seis-eu", objects_dir, profile=profile or NetworkProfile()
    )
    repo = RemoteRepository(store, policy=policy or TransportPolicy())
    metastore = MetadataStore(metastore_path)
    metastore.load()
    db = Database()
    report = lazy_ingest_metadata(db, repo, metastore=metastore)
    assert report.files_reused == report.files, "metastore must serve all rows"
    executor = TwoStageExecutor(
        db, RepositoryBinding(repo), selective_mounts=selective
    )
    started = time.perf_counter()
    outcome = executor.execute(sql)
    wall = time.perf_counter() - started
    repo.close()
    return RemoteRun(
        mode=mode,
        rows=outcome.rows,
        remote_bytes=repo.stats.remote_bytes,
        ranged_gets=repo.stats.ranged_gets,
        whole_fetches=repo.stats.whole_fetches,
        wall_seconds=wall,
    )


def run_ranged_vs_whole(
    objects_dir: Path, metastore_path: Path, sql: str
) -> tuple[RemoteRun, RemoteRun]:
    whole = _fresh_session(
        objects_dir, metastore_path, sql, "whole", selective=False
    )
    ranged = _fresh_session(
        objects_dir, metastore_path, sql, "ranged", selective=True
    )
    return whole, ranged


def ranged_reduction(whole: RemoteRun, ranged: RemoteRun) -> float:
    if ranged.remote_bytes == 0:
        return float("inf")
    return whole.remote_bytes / ranged.remote_bytes


def check_ranged_vs_whole(whole: RemoteRun, ranged: RemoteRun) -> None:
    assert ranged.rows == whole.rows, (
        f"ranged GETs changed the answer: {whole.rows!r} -> {ranged.rows!r}"
    )
    assert ranged.ranged_gets > 0, "the selective path never issued a range"
    ratio = ranged_reduction(whole, ranged)
    assert ratio >= MIN_RANGED_REDUCTION, (
        f"expected >={MIN_RANGED_REDUCTION}x fewer remote bytes via ranged "
        f"GETs, got {ratio:.2f}x ({whole.remote_bytes:,} whole vs "
        f"{ranged.remote_bytes:,} ranged)"
    )


# -- claim 2: fault-free resilience overhead -----------------------------------


@dataclass
class OverheadRun:
    mode: str  # "bare" | "resilient"
    rows: list[tuple]
    wall_seconds: float  # best of N: adjudicates scheduling noise


BARE_POLICY = TransportPolicy(max_attempts=1, retry_budget_attempts=0)
# The always-on stack: retry ladder, per-query budget, circuit breaker.
RESILIENT_POLICY = TransportPolicy(max_attempts=3, retry_budget_attempts=64)


def run_overhead(
    objects_dir: Path,
    metastore_path: Path,
    sql: str,
    repeats: int,
) -> tuple[OverheadRun, OverheadRun]:
    """Fault-free full-pipeline wall time, bare vs fully armed.

    The modeled 5 ms/request latency is drawn from the same seed in both
    arms, so any wall-clock difference is the resilience machinery itself.
    """
    profile = NetworkProfile(latency_seconds=0.005)
    runs = []
    for mode, policy in (("bare", BARE_POLICY), ("resilient", RESILIENT_POLICY)):
        best = None
        rows = None
        for _ in range(repeats):
            run = _fresh_session(
                objects_dir,
                metastore_path,
                sql,
                mode,
                selective=True,
                policy=policy,
                profile=profile,
            )
            rows = run.rows
            best = run.wall_seconds if best is None else min(best, run.wall_seconds)
        runs.append(OverheadRun(mode=mode, rows=rows, wall_seconds=best))
    return runs[0], runs[1]


def overhead_fraction(bare: OverheadRun, resilient: OverheadRun) -> float:
    return (resilient.wall_seconds - bare.wall_seconds) / bare.wall_seconds


def check_overhead(bare: OverheadRun, resilient: OverheadRun) -> None:
    assert resilient.rows == bare.rows, (
        "the resilience stack changed the answer"
    )
    fraction = overhead_fraction(bare, resilient)
    assert fraction <= MAX_OVERHEAD_FRACTION, (
        f"expected <={MAX_OVERHEAD_FRACTION:.0%} fault-free overhead, got "
        f"{fraction:.1%} ({bare.wall_seconds * 1e3:.1f} ms bare vs "
        f"{resilient.wall_seconds * 1e3:.1f} ms resilient)"
    )


# -- reporting -----------------------------------------------------------------


def render(
    whole: RemoteRun,
    ranged: RemoteRun,
    bare: OverheadRun,
    resilient: OverheadRun,
) -> str:
    lines = [
        f"{'mode':>10} {'remote bytes':>13} {'ranged':>7} {'whole':>6}",
    ]
    for run in (whole, ranged):
        lines.append(
            f"{run.mode:>10} {run.remote_bytes:>13,} "
            f"{run.ranged_gets:>7} {run.whole_fetches:>6}"
        )
    lines.append(
        f"ranged GETs move {ranged_reduction(whole, ranged):.1f}x fewer "
        f"remote bytes on the narrow window"
    )
    lines.append("")
    lines.append(
        f"fault-free resilience overhead: "
        f"{overhead_fraction(bare, resilient):+.2%} "
        f"({bare.wall_seconds * 1e3:.1f} ms bare, "
        f"{resilient.wall_seconds * 1e3:.1f} ms armed)"
    )
    return "\n".join(lines)


# -- pytest entry points -------------------------------------------------------


def _run_all(spec: RepositorySpec, repeats: int) -> dict:
    repository = materialize_repository(spec)
    objects_dir = Path(repository.root)
    workdir = Path(tempfile.mkdtemp(prefix="bench-remote-"))
    metastore_path = _harvest_metadata(objects_dir, workdir)
    sql = _narrow_sql(spec)

    whole, ranged = run_ranged_vs_whole(objects_dir, metastore_path, sql)
    bare, resilient = run_overhead(objects_dir, metastore_path, sql, repeats)
    print()
    print(render(whole, ranged, bare, resilient))
    check_ranged_vs_whole(whole, ranged)
    check_overhead(bare, resilient)
    return {
        "whole": whole,
        "ranged": ranged,
        "bare": bare,
        "resilient": resilient,
    }


def test_remote_bench_quick():
    """Smoke: both claims at 2-file scale."""
    _run_all(quick_spec(), repeats=5)


# -- script entry point --------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Remote backend: ranged GETs vs whole-object GETs, "
        "fault-free resilience overhead"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="2-file smoke run (seconds); CI uses this",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)

    spec = quick_spec() if args.quick else dense_spec()
    repeats = 5  # best-of: adjudicates scheduler noise on a ~50 ms wall
    repository = materialize_repository(spec)
    print(
        f"repository: {len(repository.uris())} files, "
        f"{repository.total_bytes():,} bytes"
    )
    try:
        runs = _run_all(spec, repeats)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    maybe_emit_json(
        args.json,
        "remote",
        params={
            "quick": args.quick,
            "files": spec.file_count,
            "repository_bytes": repository.total_bytes(),
            "overhead_repeats": repeats,
            "min_ranged_reduction": MIN_RANGED_REDUCTION,
            "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        },
        results={
            "whole": runs["whole"],
            "ranged": runs["ranged"],
            "ranged_reduction": ranged_reduction(
                runs["whole"], runs["ranged"]
            ),
            "bare": runs["bare"],
            "resilient": runs["resilient"],
            "overhead_fraction": overhead_fraction(
                runs["bare"], runs["resilient"]
            ),
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
