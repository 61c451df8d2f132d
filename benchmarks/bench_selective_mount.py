"""Experiment A7 — record-granular selective mounting.

Rule (1) fuses the query's time predicate into every stage-2 mount branch.
Selective mounting pushes that interval *into extraction*: the xSEED
extractor seeks straight to the records whose header interval overlaps the
request (using the R table's byte map), reads only those byte ranges, and
Steim-decodes only those frames. On a narrow time window — the paper's
"five minutes around the earthquake" exploration pattern — this should cut
both bytes read and records decoded by well over 5x, with byte-identical
answers.

Method: the same narrow-window query runs cold in two configurations
(selective on/off), each on a fresh metadata-only
database with cold buffers and an empty ingestion cache. File-level time
pruning cannot help here — every file's records span the whole day, so
every file of interest overlaps the window — which isolates the
record-granular effect.

Run as a script (CI smoke-checks ``--smoke --json``)::

    PYTHONPATH=src python benchmarks/bench_selective_mount.py --smoke
    PYTHONPATH=src python benchmarks/bench_selective_mount.py --json out.json

or through pytest (``pytest benchmarks/bench_selective_mount.py -s``).
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

# A 30-minute window out of each file's full day: ~2% of the records in
# every file of interest, so record pruning (not file pruning) is the only
# available lever.
NARROW_SQL = (
    "SELECT COUNT(*) AS n, AVG(D.sample_value) AS a "
    "FROM F JOIN D ON F.uri = D.uri "
    "WHERE D.sample_time >= '2010-01-10T10:00:00.000' "
    "AND D.sample_time < '2010-01-10T10:30:00.000'"
)

MIN_REDUCTION = 5.0


def dense_spec() -> RepositorySpec:
    """4 day-long files of 240 records each — the headline scale."""
    return RepositorySpec(
        stations=("ISK", "ANK"),
        channels=("BHE", "BHZ"),
        days=1,
        sample_rate=1.0,
        samples_per_record=360,
    )


def smoke_spec() -> RepositorySpec:
    """2 files of 96 records — CI smoke scale (seconds, not minutes)."""
    return RepositorySpec(
        stations=("ISK",),
        channels=("BHE", "BHZ"),
        days=1,
        sample_rate=0.2,
        samples_per_record=180,
    )


@dataclass
class SelectiveRun:
    """One cold execution's read/decode accounting."""

    selective: bool
    rows: list[tuple]
    files_mounted: int
    bytes_read: int
    records_decoded: int
    records_skipped: int
    selective_mounts: int
    stage2_seconds: float


def run_cold(repository: FileRepository, selective: bool) -> SelectiveRun:
    """Cold-run the narrow query: fresh database, cache, and buffers."""
    db = Database()
    lazy_ingest_metadata(db, repository)
    executor = TwoStageExecutor(
        db, RepositoryBinding(repository), selective_mounts=selective
    )
    db.make_cold()
    outcome = executor.execute(NARROW_SQL)
    counters = outcome.trace.counters
    return SelectiveRun(
        selective=selective,
        rows=outcome.rows,
        files_mounted=counters["files_mounted"],
        bytes_read=counters["bytes_read"],
        records_decoded=counters["records_decoded"],
        records_skipped=counters["records_skipped"],
        selective_mounts=counters["selective_mounts"],
        stage2_seconds=outcome.trace.seconds("stage2"),
    )


def compare(repository: FileRepository) -> list[SelectiveRun]:
    """Both configurations; verifies byte-identical answers."""
    full, selective = (run_cold(repository, s) for s in (False, True))
    if selective.rows != full.rows:
        raise AssertionError(
            "selective mounting changed the answer: "
            f"{full.rows!r} -> {selective.rows!r}"
        )
    return [full, selective]


def reductions(runs: Sequence[SelectiveRun]) -> tuple[float, float]:
    """(bytes, decode) reduction of the best selective run vs full mounts."""
    full = next(r for r in runs if not r.selective)
    sel = next(r for r in runs if r.selective)
    bytes_x = full.bytes_read / sel.bytes_read if sel.bytes_read else float("inf")
    decode_x = (
        full.records_decoded / sel.records_decoded
        if sel.records_decoded
        else float("inf")
    )
    return bytes_x, decode_x


def render(runs: Sequence[SelectiveRun]) -> str:
    lines = [
        f"{'selective':>10} {'files':>6} {'bytes read':>12} "
        f"{'decoded':>8} {'skipped':>8} {'stage 2':>10}",
    ]
    for run in runs:
        lines.append(
            f"{('on' if run.selective else 'off'):>10} "
            f"{run.files_mounted:>6} {run.bytes_read:>12,} "
            f"{run.records_decoded:>8} {run.records_skipped:>8} "
            f"{run.stage2_seconds * 1000:>8.1f}ms"
        )
    bytes_x, decode_x = reductions(runs)
    lines.append(
        f"selective mounting reads {bytes_x:.1f}x fewer payload bytes and "
        f"decodes {decode_x:.1f}x fewer records; answers byte-identical"
    )
    return "\n".join(lines)


def check(runs: Sequence[SelectiveRun]) -> None:
    bytes_x, decode_x = reductions(runs)
    assert bytes_x >= MIN_REDUCTION, (
        f"expected >={MIN_REDUCTION}x fewer bytes read, got {bytes_x:.2f}x"
    )
    assert decode_x >= MIN_REDUCTION, (
        f"expected >={MIN_REDUCTION}x fewer records decoded, "
        f"got {decode_x:.2f}x"
    )
    for run in runs:
        if run.selective:
            assert run.selective_mounts == run.files_mounted
            assert run.records_skipped > 0


# -- pytest entry points -------------------------------------------------------


def test_selective_mount_smoke():
    """Smoke: identical answers, >=5x reductions (2 files)."""
    repository = materialize_repository(smoke_spec())
    runs = compare(repository)
    print()
    print(render(runs))
    check(runs)


def test_selective_mount_headline():
    """Headline: >=5x fewer bytes and decodes on 4 day-long files."""
    repository = materialize_repository(dense_spec())
    runs = compare(repository)
    print()
    print(render(runs))
    check(runs)


# -- script entry point --------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Selective mounting: record-granular vs whole-file reads"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="2-file smoke run (seconds); CI uses this",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)

    spec = smoke_spec() if args.smoke else dense_spec()
    repository = materialize_repository(spec)
    print(
        f"repository: {len(repository.uris())} files, "
        f"{repository.total_bytes():,} bytes"
    )
    runs = compare(repository)
    print(render(runs))
    bytes_x, decode_x = reductions(runs)
    maybe_emit_json(
        args.json,
        "selective_mount",
        params={
            "smoke": args.smoke,
            "files": len(repository.uris()),
            "repository_bytes": repository.total_bytes(),
            "sql": NARROW_SQL,
            "min_reduction": MIN_REDUCTION,
        },
        results={
            "runs": list(runs),
            "bytes_reduction": bytes_x,
            "decode_reduction": decode_x,
        },
    )
    try:
        check(runs)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
