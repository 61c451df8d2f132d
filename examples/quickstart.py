"""Quickstart: two-stage query execution over a scientific file repository.

Builds a small synthetic seismic repository, loads *only metadata* into the
database (the ALi setup), and runs the paper's Query 1 — the average of a
short waveform window — watching the two execution stages work: stage 1
identifies the files of interest from metadata, stage 2 mounts exactly those
files and finishes the plan.

Run: ``python examples/quickstart.py``
"""

import tempfile

from repro.core import TwoStageExecutor
from repro.db import Database
from repro.ingest import RepositoryBinding, eager_ingest, lazy_ingest_metadata
from repro.mseed import FileRepository, RepositorySpec, generate_repository


def main() -> None:
    spec = RepositorySpec(
        stations=("ISK", "ANK"),
        channels=("BHE", "BHZ"),
        days=2,
        sample_rate=0.1,
        samples_per_record=1800,
    )
    with tempfile.TemporaryDirectory() as root:
        print(f"Generating {spec.file_count} xSEED files under {root} ...")
        generate_repository(root, spec)
        repository = FileRepository(root)

        # The ALi world: metadata only, near-instant setup.
        db = Database()
        report = lazy_ingest_metadata(db, repository)
        print(
            f"Loaded metadata for {report.files} files / "
            f"{report.records} records in {report.load_seconds * 1000:.1f} ms "
            f"({report.metadata_bytes:,} bytes). Actual data: 0 rows."
        )

        executor = TwoStageExecutor(db, RepositoryBinding(repository))
        query1 = """
            SELECT AVG(D.sample_value)
            FROM F JOIN R ON F.uri = R.uri
            JOIN D ON R.uri = D.uri AND R.record_id = D.record_id
            WHERE F.station = 'ISK' AND F.channel = 'BHE'
            AND R.start_time > '2010-01-10T00:00:00.000'
            AND R.start_time < '2010-01-10T23:59:59.999'
            AND D.sample_time > '2010-01-10T10:00:00.000'
            AND D.sample_time < '2010-01-10T12:00:00.000'
        """

        print("\nThe single optimized plan (Qf marked — the paper's bold):")
        print(executor.explain(query1))

        outcome = executor.execute(query1)
        print("\nAt the breakpoint the system knew:")
        print(outcome.breakpoint.summary())
        print(f"\nAnswer: {outcome.rows[0][0]:.6f}")
        print(
            f"stage 1 {outcome.trace.seconds('stage1') * 1000:.1f} ms, "
            f"stage 2 {outcome.trace.seconds('stage2') * 1000:.1f} ms"
        )

        # Sanity: the eager baseline agrees.
        ei = Database()
        ei_report = eager_ingest(ei, repository)
        print(
            f"\nFor comparison, eager ingestion took "
            f"{ei_report.total_seconds:.3f} s up-front "
            f"({ei_report.samples:,} samples decompressed)."
        )
        assert abs(ei.execute(query1).scalar() - outcome.rows[0][0]) < 1e-9
        print("Eager baseline returns the identical answer. ✓")


if __name__ == "__main__":
    main()
