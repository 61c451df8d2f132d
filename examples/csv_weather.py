"""Generalization (§5): the same paradigm over a different file format.

"Different scientific domains usually have different formats … we can design
a generalized medium for the scientific developer [to] define domain- and
format-specific mappings." This example builds a repository of CSV
time-series files (a toy weather-station archive), registers the CSV format
extractor, and runs two-stage queries over it — nothing else changes: the
schema, the executor, and the SQL are exactly the seismology ones.

Run: ``python examples/csv_weather.py``
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import TwoStageExecutor
from repro.db import Database, parse_timestamp
from repro.ingest import (
    CsvExtractor,
    FormatRegistry,
    RepositoryBinding,
    lazy_ingest_metadata,
    write_csv_timeseries,
)
from repro.mseed import FileRepository

STATIONS = {"AMS": 9.5, "BER": 6.0, "MAD": 14.0}  # mean winter temp, °C
DAYS = ["2010-01-10", "2010-01-11", "2010-01-12"]
SAMPLES_PER_DAY = 144  # one reading every 10 minutes


def build_weather_repository(root: Path) -> None:
    rng = np.random.default_rng(7)
    for station, mean_temp in STATIONS.items():
        for day in DAYS:
            start = parse_timestamp(day)
            hours = np.arange(SAMPLES_PER_DAY) / 6.0
            diurnal = 4.0 * np.sin(2 * np.pi * (hours - 9) / 24.0)
            noise = rng.normal(0.0, 0.8, SAMPLES_PER_DAY)
            temps = mean_temp + diurnal + noise
            write_csv_timeseries(
                root / station / f"{station}.{day}.tscsv",
                network="WX",
                station=station,
                location="",
                channel="TMP",
                sample_rate=1.0 / 600.0,
                start_time=start,
                values=temps,
            )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_weather_repository(root)
        repository = FileRepository(root, suffix=".tscsv")
        print(
            f"Weather repository: {len(repository)} CSV files, "
            f"{repository.total_bytes():,} bytes"
        )

        registry = FormatRegistry()
        registry.register(CsvExtractor())

        db = Database()
        report = lazy_ingest_metadata(db, repository, registry)
        print(
            f"Metadata loaded in {report.load_seconds * 1000:.1f} ms "
            f"({report.samples:,} readings described, none ingested)\n"
        )

        # prune_by_time opts into the §5 metadata-exploitation extension:
        # queries that constrain only the sample time skip files whose
        # metadata time span cannot overlap.
        executor = TwoStageExecutor(
            db,
            RepositoryBinding(
                repository, registry=registry, prune_by_time=True
            ),
        )

        # Which station-days are available? Pure metadata — stage 1 only.
        catalog = executor.execute(
            "SELECT station, COUNT(*) AS files, SUM(nsamples) AS readings "
            "FROM F GROUP BY station ORDER BY station"
        )
        print("Station inventory (answered from metadata alone):")
        print(catalog.result.pretty())
        assert catalog.result.trace.counters["files_mounted"] == 0

        # Average afternoon temperature in Madrid on one day: mounts 1 file.
        outcome = executor.execute(
            "SELECT AVG(D.sample_value) "
            "FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'MAD' "
            "AND D.sample_time > '2010-01-11T12:00:00' "
            "AND D.sample_time < '2010-01-11T18:00:00'"
        )
        print(
            f"\nMAD afternoon mean on 2010-01-11: {outcome.rows[0][0]:.2f} °C "
            f"({outcome.result.trace.counters['files_mounted']} CSV file mounted, "
            f"{outcome.breakpoint.n_files} of interest)"
        )

        # Hottest reading across all stations on the 12th: 3 files mounted.
        hottest = executor.execute(
            "SELECT F.station, MAX(D.sample_value) AS peak "
            "FROM F JOIN D ON F.uri = D.uri "
            "WHERE D.sample_time > '2010-01-12T00:00:00' "
            "AND D.sample_time < '2010-01-13T00:00:00' "
            "GROUP BY F.station ORDER BY peak DESC"
        )
        print("\nPeak temperatures on 2010-01-12:")
        print(hottest.result.pretty())
        print(
            f"({hottest.result.trace.counters['files_mounted']} files mounted out of "
            f"{len(repository)})"
        )


if __name__ == "__main__":
    main()
