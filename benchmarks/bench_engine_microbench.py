"""Engine micro-benchmarks: the substrate costs behind the experiments.

Not a paper artifact, but the knobs EXPERIMENTS.md cites when explaining
where time goes: Steim codec throughput, header-only scan vs full parse,
hash-join and aggregation kernels.

Run: ``pytest benchmarks/bench_engine_microbench.py --benchmark-only -s``
"""

import numpy as np
import pytest

from repro.db import Database
from repro.ingest import default_registry, eager_ingest
from repro.mseed import (
    FileRepository,
    RepositorySpec,
    generate_repository,
    read_file_metadata,
    read_files_metadata,
    scan_headers,
    steim_decode,
    steim_encode,
)
from repro.mseed.iohooks import FileSource
from repro.mseed.volume import read_records


@pytest.fixture(scope="module")
def waveform():
    rng = np.random.default_rng(0)
    return np.cumsum(rng.integers(-8, 8, 500_000)).astype(np.int32)


def test_steim_encode(benchmark, waveform):
    payload = benchmark(steim_encode, waveform)
    ratio = waveform.nbytes / len(payload)
    print(f"\ncompression ratio {ratio:.2f}x on AR noise")


def test_steim_decode(benchmark, waveform):
    payload = steim_encode(waveform)
    decoded = benchmark(steim_decode, payload, len(waveform))
    assert np.array_equal(decoded, waveform)


def test_header_scan_vs_full_parse(env, benchmark):
    """The asymmetry ALi exploits: headers are ~100x cheaper than payloads."""
    uri = env.repository.uris()[0]
    path = env.repository.path_of(uri)
    benchmark(scan_headers, path)


def test_file_metadata_columnar(env, benchmark):
    """The metadata pass proper: the same walk as ``scan_headers`` with one
    vectorised parse instead of a scalar ``RecordHeader`` per record — the
    ratio of the two cases is the vector/scalar ratio."""
    uri = env.repository.uris()[0]
    path = env.repository.path_of(uri)
    benchmark(read_file_metadata, path)


def test_repository_metadata_pass(env, benchmark):
    """Every file of the repository in one call: the same walk per file, one
    parse per block of files. Divided by the file count and set against the
    one-file case above, it is what a numpy call per file used to cost."""
    repo = env.repository
    files = [FileSource(repo.path_of(uri), uri) for uri in repo.uris()]
    results = benchmark(read_files_metadata, files)
    assert len(results) == len(files)


def test_full_parse(env, benchmark):
    uri = env.repository.uris()[0]
    path = env.repository.path_of(uri)
    benchmark(read_records, path)


def test_mount_one_file(env, benchmark):
    uri = env.repository.uris()[0]
    path = env.repository.path_of(uri)
    extractor = default_registry().for_path(path)
    benchmark(extractor.mount, FileSource(path, uri))


def test_hash_join_kernel(env, benchmark):
    """R ⋈ D style join over the eagerly loaded database (hot)."""
    env.ei.warm_all()
    sql = (
        "SELECT COUNT(*) FROM R JOIN D "
        "ON R.uri = D.uri AND R.record_id = D.record_id "
        "WHERE R.record_id = 0"
    )
    benchmark.pedantic(lambda: env.ei.execute(sql), rounds=3, iterations=1)


@pytest.fixture(scope="module")
def wide_scan_db(tmp_path_factory):
    """What a wide scan's stage 2 joins: 3 stations x 3 channels x 2 days
    at 0.2 Hz — 18 files, ~311k samples, 24 records a file — loaded without
    key indexes, so the join below is the hash join rule (1) plans."""
    root = tmp_path_factory.mktemp("wide_scan")
    generate_repository(
        root,
        RepositorySpec(
            stations=("ISK", "ANK", "IZM"),
            channels=("BHE", "BHN", "BHZ"),
            days=2,
            sample_rate=0.2,
            samples_per_record=720,
        ),
    )
    db = Database()
    eager_ingest(db, FileRepository(root), build_indexes=False)
    db.warm_all()
    return db


def test_rule_one_join_kernel(wide_scan_db, benchmark):
    """Rule (1)'s join under AVG: every mounted sample (probe side, left)
    against a ~400-row stage-1 result (build side, right) on
    (uri, record_id) — the shape that dominates a wide scan's stage 2."""
    sql = (
        "SELECT AVG(D.sample_value) FROM D JOIN R "
        "ON D.uri = R.uri AND D.record_id = R.record_id "
        "WHERE R.record_id > 0"
    )
    result = benchmark.pedantic(
        lambda: wide_scan_db.execute(sql), rounds=20, iterations=1
    )
    assert result.num_rows == 1


def test_aggregation_kernel(env, benchmark):
    env.ei.warm_all()
    sql = "SELECT uri, AVG(sample_value) FROM D GROUP BY uri"
    benchmark.pedantic(lambda: env.ei.execute(sql), rounds=3, iterations=1)
