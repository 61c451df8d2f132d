"""Experiment A10 — the persistent metastore's warm start.

One quantitative claim, asserted: a session that loads the persisted
metastore reaches its first answer reading at least ``MIN_WARM_REDUCTION``x
fewer repository bytes than a cold session that must header-walk every file
— the DiNoDB move of treating positional maps as metadata worth keeping.
(A10's second claim, the ``ADAPTIVE`` cache policy against LRU, was
deleted with the policy; EXPERIMENTS.md A23 has the measurement that
decided it.)

Run as a script (CI smoke-checks ``--smoke --json``)::

    PYTHONPATH=src python benchmarks/bench_adaptive_cache.py --smoke
    PYTHONPATH=src python benchmarks/bench_adaptive_cache.py --json out.json

or through pytest (``pytest benchmarks/bench_adaptive_cache.py -s``).
"""

from __future__ import annotations

import argparse
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Sequence

from bench_json import add_json_argument, maybe_emit_json
from repro.core import MetadataStore, TwoStageExecutor
from repro.db import Database
from repro.db.types import format_timestamp, parse_timestamp
from repro.harness.setup import materialize_repository
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository, RepositorySpec
from repro.mseed.iohooks import set_volume_io_hook

MIN_WARM_REDUCTION = 5.0  # cold/warm repository-bytes ratio floor
HOT_STATION = "ISK"

_MINUTE_US = 60 * 1_000_000


def dense_spec() -> RepositorySpec:
    """27 files x 96 records: header-walk bytes dominate a narrow query."""
    return RepositorySpec(
        stations=("ISK", "ANK", "IZM"),
        channels=("BHE", "BHN", "BHZ"),
        days=3,
        sample_rate=0.5,
        samples_per_record=450,
    )


def smoke_spec() -> RepositorySpec:
    """4 files x 160 records — CI smoke scale (seconds, not minutes)."""
    return RepositorySpec(
        stations=("ISK", "ANK"),
        channels=("BHE", "BHN"),
        days=1,
        sample_rate=0.5,
        samples_per_record=270,
    )


def _window_sql(station: str, lo_us: int, hi_us: int) -> str:
    return (
        "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a "
        "FROM F JOIN D ON F.uri = D.uri "
        f"WHERE F.station = '{station}' "
        f"AND D.sample_time >= '{format_timestamp(lo_us)}' "
        f"AND D.sample_time < '{format_timestamp(hi_us)}'"
    )


# -- repository byte accounting ------------------------------------------------


class _ByteCounter:
    """Volume I/O hook that sums bytes handed out by repository reads.

    Metastore sidecar traffic (``metastore:`` URIs) is excluded: the claim
    under test is about *repository* bytes, and the sidecar is the thing
    that replaces them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.bytes_read = 0  # guarded-by: _lock

    def wrap(self, path: Path, uri: str, handle: BinaryIO) -> BinaryIO:
        if uri.startswith("metastore:"):
            return handle
        return _CountingHandle(self, handle)

    def add(self, n: int) -> None:
        with self._lock:
            self.bytes_read += n

    @contextmanager
    def install(self) -> Iterator["_ByteCounter"]:
        previous = set_volume_io_hook(self)
        try:
            yield self
        finally:
            set_volume_io_hook(previous)


class _CountingHandle:
    def __init__(self, counter: _ByteCounter, handle: BinaryIO) -> None:
        self._counter = counter
        self._handle = handle

    def read(self, n: int = -1) -> bytes:
        data = self._handle.read(n)
        self._counter.add(len(data))
        return data

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._handle.seek(offset, whence)

    def tell(self) -> int:
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "_CountingHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the claim: cold vs warm metastore start ----------------------------------


@dataclass
class SessionRun:
    """One session's path to its first answer."""

    mode: str  # "cold" | "warm"
    rows: list[tuple]
    repository_bytes: int
    files_reused: int
    mounts: int
    load_seconds: float


def _first_answer(
    repository: FileRepository,
    metastore: MetadataStore,
    mode: str,
    sql: str,
) -> SessionRun:
    counter = _ByteCounter()
    with counter.install():
        db = Database()
        report = lazy_ingest_metadata(db, repository, metastore=metastore)
        executor = TwoStageExecutor(
            db, RepositoryBinding(repository), selective_mounts=True
        )
        db.make_cold()
        outcome = executor.execute(sql)
    return SessionRun(
        mode=mode,
        rows=outcome.rows,
        repository_bytes=counter.bytes_read,
        files_reused=report.files_reused,
        mounts=outcome.trace.counters["files_mounted"],
        load_seconds=report.load_seconds,
    )


def run_cold_vs_warm(
    repository: FileRepository, spec: RepositorySpec
) -> tuple[SessionRun, SessionRun]:
    """Cold session (header walk, records + saves the sidecar), then a fresh
    warm session that loads the sidecar and stat-validates every file."""
    sidecar = repository.root / MetadataStore.for_repository(
        repository.root
    ).path.name
    sidecar.unlink(missing_ok=True)

    day_us = parse_timestamp(spec.start_day)
    sql = _window_sql(
        HOT_STATION, day_us + 600 * _MINUTE_US, day_us + 630 * _MINUTE_US
    )

    cold_store = MetadataStore.for_repository(repository.root)
    cold = _first_answer(repository, cold_store, "cold", sql)

    warm_store = MetadataStore.for_repository(repository.root)
    warm_store.load()
    warm = _first_answer(repository, warm_store, "warm", sql)
    return cold, warm


def warm_reduction(cold: SessionRun, warm: SessionRun) -> float:
    if warm.repository_bytes == 0:
        return float("inf")
    return cold.repository_bytes / warm.repository_bytes


def check_cold_vs_warm(
    cold: SessionRun, warm: SessionRun, file_count: int
) -> None:
    assert warm.rows == cold.rows, (
        f"warm start changed the answer: {cold.rows!r} -> {warm.rows!r}"
    )
    assert cold.files_reused == 0
    assert warm.files_reused == file_count, (
        f"expected all {file_count} files served from the metastore, "
        f"got {warm.files_reused}"
    )
    ratio = warm_reduction(cold, warm)
    assert ratio >= MIN_WARM_REDUCTION, (
        f"expected >={MIN_WARM_REDUCTION}x fewer repository bytes on warm "
        f"start, got {ratio:.2f}x ({cold.repository_bytes:,} cold vs "
        f"{warm.repository_bytes:,} warm)"
    )


# -- reporting -----------------------------------------------------------------


def render(cold: SessionRun, warm: SessionRun) -> str:
    lines = [
        f"{'session':>8} {'repo bytes':>12} {'reused':>7} {'mounts':>7}",
    ]
    for run in (cold, warm):
        lines.append(
            f"{run.mode:>8} {run.repository_bytes:>12,} "
            f"{run.files_reused:>7} {run.mounts:>7}"
        )
    lines.append(
        f"warm start reads {warm_reduction(cold, warm):.1f}x fewer "
        f"repository bytes to its first answer"
    )
    return "\n".join(lines)


# -- pytest entry points -------------------------------------------------------


def _run_all(spec: RepositorySpec) -> dict:
    repository = materialize_repository(spec)
    cold, warm = run_cold_vs_warm(repository, spec)
    print()
    print(render(cold, warm))
    check_cold_vs_warm(cold, warm, spec.file_count)
    return {"cold": cold, "warm": warm}


def test_adaptive_cache_smoke():
    """Smoke: the claim at 4-file scale."""
    _run_all(smoke_spec())


def test_adaptive_cache_headline():
    """Headline: the claim on 27 day-long files."""
    _run_all(dense_spec())


# -- script entry point --------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Persistent metastore: cold vs warm start"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="4-file smoke run (seconds); CI uses this",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)

    spec = smoke_spec() if args.smoke else dense_spec()
    repository = materialize_repository(spec)
    print(
        f"repository: {len(repository.uris())} files, "
        f"{repository.total_bytes():,} bytes"
    )
    try:
        runs = _run_all(spec)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    maybe_emit_json(
        args.json,
        "adaptive_cache",
        params={
            "smoke": args.smoke,
            "files": spec.file_count,
            "repository_bytes": repository.total_bytes(),
            "min_warm_reduction": MIN_WARM_REDUCTION,
        },
        results={
            "cold": runs["cold"],
            "warm": runs["warm"],
            "warm_reduction": warm_reduction(runs["cold"], runs["warm"]),
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
