"""Tests for the command-line interface."""

import runpy
import shutil
import sys

import pytest

from repro.cli import main
from repro.mseed import HEADER_SIZE


@pytest.fixture()
def repo_dir(tmp_path):
    root = tmp_path / "repo"
    code = main([
        "generate", "--root", str(root),
        "--stations", "ISK,ANK", "--channels", "BHE",
        "--days", "1", "--sample-rate", "0.02",
        "--samples-per-record", "400",
    ])
    assert code == 0
    return root


class TestGenerateInspect:
    def test_generate_reports(self, tmp_path, capsys):
        code = main([
            "generate", "--root", str(tmp_path / "r"),
            "--stations", "ISK,ANK", "--channels", "BHE",
            "--days", "1", "--sample-rate", "0.02",
            "--samples-per-record", "400",
        ])
        assert code == 0
        assert "generated 2 files" in capsys.readouterr().out

    def test_inspect(self, repo_dir, capsys):
        assert main(["inspect", "--repo", str(repo_dir)]) == 0
        out = capsys.readouterr().out
        assert "files      : 2" in out
        assert "ISK" in out and "ANK" in out


class TestLoadQuery:
    def test_lazy_load_and_query(self, repo_dir, tmp_path, capsys):
        db_dir = tmp_path / "db"
        assert main([
            "load", "--repo", str(repo_dir), "--db", str(db_dir),
            "--mode", "lazy",
        ]) == 0
        assert main([
            "query", "--db", str(db_dir),
            "SELECT station, COUNT(*) FROM F GROUP BY station ORDER BY station",
        ]) == 0
        out = capsys.readouterr().out
        assert "ISK" in out and "2 rows" in out

    def test_a_lazy_database_refuses_to_read_d(self, repo_dir, tmp_path, capsys):
        """Metadata only: D holds no rows, so a query reading it is refused
        with an error naming --repo instead of answering 0."""
        db_dir = tmp_path / "db"
        assert main([
            "load", "--repo", str(repo_dir), "--db", str(db_dir),
            "--mode", "lazy",
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", "--db", str(db_dir), "SELECT COUNT(*) FROM D",
        ]) == 1
        captured = capsys.readouterr()
        assert "--repo" in captured.err
        assert "0" not in captured.out

    def test_eager_load_and_query(self, repo_dir, tmp_path, capsys):
        db_dir = tmp_path / "db"
        assert main([
            "load", "--repo", str(repo_dir), "--db", str(db_dir),
            "--mode", "eager",
        ]) == 0
        assert main([
            "query", "--db", str(db_dir), "SELECT COUNT(*) FROM D",
        ]) == 0
        out = capsys.readouterr().out
        assert "3456" in out  # 2 files × 1728 samples

    def test_two_stage_query_against_repo(self, repo_dir, capsys):
        assert main([
            "query", "--repo", str(repo_dir), "--breakpoint",
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK'",
        ]) == 0
        out = capsys.readouterr().out
        assert "file(s) of interest" in out
        assert "1 file(s) mounted" in out
        assert "1728" in out
        # The query's trace follows the breakpoint summary.
        assert "\nstage2  [" in out and "on worker 0" in out
        assert "counters: " in out and "files_mounted=1," in out

    def test_explain(self, repo_dir, capsys):
        assert main([
            "query", "--repo", str(repo_dir), "--explain",
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
            "WHERE F.station = 'ISK'",
        ]) == 0
        out = capsys.readouterr().out
        assert "[Qf]" in out
        assert "Scan(D)" in out

    def test_sql_error_is_reported_not_raised(self, repo_dir, capsys):
        code = main(["query", "--repo", str(repo_dir), "SELEC oops"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_budget_raise_reports_error(self, repo_dir, capsys):
        code = main([
            "query", "--repo", str(repo_dir), "--max-mount-bytes", "1",
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "byte budget" in err

    def test_budget_partial_warns_and_answers(self, repo_dir, capsys):
        code = main([
            "query", "--repo", str(repo_dir),
            "--max-mount-bytes", "1", "--on-budget", "partial",
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 rows" in captured.out
        assert "answer truncated" in captured.err

    def test_deadline_flag_accepted(self, repo_dir, capsys):
        # A generous deadline: the query completes untruncated.
        code = main([
            "query", "--repo", str(repo_dir), "--deadline-seconds", "60",
            "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri",
        ])
        assert code == 0
        assert "truncated" not in capsys.readouterr().err


QUERY = "SELECT COUNT(*), SUM(D.sample_value) FROM F JOIN D ON F.uri = D.uri"
ANK = "2010/KO.ANK/KO.ANK..BHE.2010.010.xseed"


def _copy_without(repo, tmp_path, name, station):
    copy = tmp_path / name
    shutil.copytree(repo, copy)
    shutil.rmtree(copy / "2010" / f"KO.{station}")
    return copy


def _remote_alone(repo, tmp_path):
    return ["--remote", f"seis={repo}"], repo, "(endpoint seis:"


def _remote_federated(repo, tmp_path):
    local = _copy_without(repo, tmp_path, "local", "ANK")
    far = _copy_without(repo, tmp_path, "far", "ISK")
    # The metadata walk's whole GET is not kept: the mount GETs again.
    return ["--repo", str(local), "--remote", f"seis={far}"], repo, (
        "in 0 ranged / 2 whole GET(s)"
    )


def _remote_metastore(repo, tmp_path):
    return (
        ["--remote", f"seis={repo}", "--metastore"],
        repo,
        "--metastore needs a local repository root",
    )


def _metastore_second_run(repo, tmp_path):
    assert main(["query", "--repo", str(repo), "--metastore", QUERY]) == 0
    return ["--repo", str(repo), "--metastore"], repo, (
        "(metastore: 2/2 files reused"
    )


def _two_mount_workers(repo, tmp_path):
    return ["--repo", str(repo), "--mount-workers", "2"], repo, (
        "(mounts: 2 file(s) on 2 workers"
    )


def _skip_a_corrupt_file(repo, tmp_path):
    # A payload bit flip leaves the headers the metadata pass reads intact,
    # so the damage surfaces at mount time, where skip mode degrades.
    path = repo / ANK
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 36] ^= 0xFF
    path.write_bytes(bytes(raw))
    intact = _copy_without(repo, tmp_path, "intact", "ANK")
    return ["--repo", str(repo), "--on-mount-error", "skip"], intact, (
        f"warning: 1 file(s) skipped:\n  {ANK}"
    )


def _eager_db_verified(repo, tmp_path):
    db = tmp_path / "db"
    assert main(["load", "--repo", str(repo), "--db", str(db),
                 "--mode", "eager"]) == 0
    return ["--db", str(db), "--verify-plans"], repo, "rows in"


@pytest.mark.parametrize("case", [
    _remote_alone,
    _remote_federated,
    _remote_metastore,
    _metastore_second_run,
    _two_mount_workers,
    _skip_a_corrupt_file,
    _eager_db_verified,
])
def test_query_paths_answer_like_plain_repo(case, repo_dir, tmp_path, capsys):
    """Each path prints the answer a plain ``--repo`` query prints over the
    files it can read, and says what it did."""
    argv, reference, says = case(repo_dir, tmp_path)
    capsys.readouterr()
    assert main(["query", *argv, QUERY]) == 0
    out, err = capsys.readouterr()
    assert says in out + err
    assert main(["query", "--repo", str(reference), QUERY]) == 0
    expected = capsys.readouterr().out
    assert out.split("\n(")[0] == expected.split("\n(")[0]


def test_db_explain_prints_the_plan(repo_dir, tmp_path, capsys):
    db = tmp_path / "db"
    assert main(["load", "--repo", str(repo_dir), "--db", str(db)]) == 0
    capsys.readouterr()
    assert main(["query", "--db", str(db), "--explain", QUERY]) == 0
    assert "Scan(D)" in capsys.readouterr().out


@pytest.mark.parametrize("argv, refusal", [
    (["--db", "db", "--remote", "seis=dir"], "not --db"),
    (["--remote", "seis"], "--remote expects ENDPOINT=DIR, got 'seis'"),
    (["--remote", "=dir"], "--remote expects ENDPOINT=DIR"),
    ([], "query needs --db, --repo, or --remote"),
])
def test_query_refuses_malformed_sources(argv, refusal):
    with pytest.raises(SystemExit, match=refusal):
        main(["query", *argv, QUERY])


def test_non_positive_worker_count_refused(repo_dir, capsys):
    with pytest.raises(SystemExit):
        main(["query", "--repo", str(repo_dir), "--mount-workers", "0", QUERY])
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf"])
def test_deadline_that_is_not_a_positive_finite_number_is_a_usage_error(
    repo_dir, seconds, capsys
):
    with pytest.raises(SystemExit) as exit_:
        main([
            "query", "--repo", str(repo_dir),
            f"--deadline-seconds={seconds}", QUERY,
        ])
    assert exit_.value.code == 2
    assert "--deadline-seconds: must be a positive, finite number" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("flag, value, refusal", [
    ("--samples-per-record", "0", "must be >= 1"),
    ("--samples-per-record", "-5", "must be >= 1"),
    ("--days", "0", "must be >= 1"),
    ("--days", "-1", "must be >= 1"),
    ("--stations", ",", "must name at least one"),
    ("--channels", ",,", "must name at least one"),
    ("--sample-rate", "nan", "must be a positive, finite number"),
    ("--sample-rate", "-1", "must be a positive, finite number"),
    ("--sample-rate", "0", "must be a positive, finite number"),
    ("--start-day", "notadate", "must be an ISO date"),
    ("--start-day", "2010-02-30", "must be an ISO date"),
])
def test_generate_refuses_a_bad_shape_as_a_usage_error(
    tmp_path, flag, value, refusal, capsys
):
    root = tmp_path / "r"
    with pytest.raises(SystemExit) as exit_:
        main(["generate", "--root", str(root), "--days", "1",
              "--sample-rate", "0.02", "--samples-per-record", "400",
              f"{flag}={value}"])
    assert exit_.value.code == 2
    assert f"{flag}: {refusal}" in capsys.readouterr().err
    assert not root.exists()


def test_a_negative_row_limit_is_a_usage_error(repo_dir, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["query", "--repo", str(repo_dir), "--limit", "-1", QUERY])
    assert exit_.value.code == 2
    assert "--limit: must be >= 0" in capsys.readouterr().err


def test_a_zero_row_limit_prints_only_the_count(repo_dir, capsys):
    sql = "SELECT F.uri FROM F"
    assert main(["query", "--repo", str(repo_dir), "--limit", "0", sql]) == 0
    out = capsys.readouterr().out
    assert "... (2 more rows)" in out and "ISK" not in out


def test_bench_needs_at_least_one_run(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--scale", "tiny", "--runs", "0"])
    assert exit_.value.code == 2
    assert "--runs: must be >= 1" in capsys.readouterr().err


def test_module_entry_point(repo_dir, monkeypatch, capsys):
    argv = ["repro", "inspect", "--repo", str(repo_dir)]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("repro", run_name="__main__")
    assert exit_.value.code == 0
    assert "files      : 2" in capsys.readouterr().out


class TestBench:
    def test_bench_tiny(self, capsys):
        assert main(["bench", "--scale", "tiny", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 3" in out
        assert "log-scale" in out
