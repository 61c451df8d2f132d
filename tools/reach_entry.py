"""The product's entry points, run once in one process under the reach tracer.

    PYTHONPATH=src python -m tools.reach --entry [reach-entry.json]

Each root is its own owner in the output file (``tools.reach`` shape):

* ``examples/NAME.py`` — every example, run with ``runpy`` as ``__main__``;
* ``repro COMMAND`` — each CLI command through ``repro.cli.main``, every
  ``query`` flag used at least once;
* ``e2e NAME`` — the four workloads of ``benchmarks/e2e/workloads.py``
  driven in-process (set-up, answers, counters, tear-down) on a freshly
  synthesized fixture, each answer checked against ``reference_executor``.
  ``run.py`` runs them in child processes, which a tracer cannot see;
* ``benchmarks/bench_NAME.py`` — every legacy benchmark script's pytest
  items at ``REPRO_BENCH_SCALE=tiny``, benchmark timing disabled.

A root that raises, a wrong e2e answer and a failing bench item are *trips*:
the pass notes them in the file and on stderr and goes on. Their lines are
still recorded. Timing floors may trip under the tracer's overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tools.reach import PACKAGE, REPO_ROOT, Collector

E2E = REPO_ROOT / "benchmarks" / "e2e"
SEED = 7


def _cli(collector: Collector, root: Path) -> None:
    from repro.cli import main

    pond, remote = str(root / "pond"), str(root / "remote")
    sql = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri"
    window = (
        "SELECT F.station, AVG(D.sample_value) FROM F JOIN D ON F.uri = D.uri "
        "WHERE D.sample_time > '2010-01-10T02:00:00' "
        "AND D.sample_time < '2010-01-10T05:00:00' GROUP BY F.station"
    )
    generate = ["--days", "2", "--sample-rate", "0.02",
                "--samples-per-record", "500"]
    commands = {
        "generate": [
            ["generate", "--root", pond, "--stations", "ISK,ANK", *generate],
            ["generate", "--root", remote, "--stations", "IZM",
             "--channels", "BHZ", "--start-day", "2010-01-10", "--seed", "3",
             *generate],
        ],
        "inspect": [["inspect", "--repo", pond]],
        "load": [
            ["load", "--repo", pond, "--db", str(root / "eager"),
             "--mode", "eager"],
            ["load", "--repo", pond, "--db", str(root / "lazy")],
        ],
        "query": [
            ["query", sql, "--db", str(root / "eager"), "--limit", "0"],
            ["query", "SELECT COUNT(*) FROM F", "--db", str(root / "lazy")],
            ["query", window, "--repo", pond, "--explain"],
            ["query", window, "--repo", pond, "--breakpoint",
             "--mount-workers", "2", "--on-mount-error", "skip",
             "--deadline-seconds", "60", "--max-mount-bytes", "1000000000",
             "--max-decoded-records", "1000000", "--on-budget", "partial",
             "--metastore", "--verify-plans", "--limit", "2"],
            ["query", window, "--repo", pond, "--no-selective-mounts",
             "--metastore"],
            ["query", sql, "--remote", f"seis-eu={remote}"],
            ["query", window, "--repo", pond, "--remote", f"seis-eu={remote}",
             "--breakpoint"],
        ],
        "bench": [["bench", "--scale", "tiny", "--runs", "1"]],
    }
    for command, invocations in commands.items():
        collector.attribute_to(f"repro {command}")
        for argv in invocations:
            _guarded(collector, f"repro {' '.join(argv)}", main, argv)


def _e2e(collector: Collector, root: Path) -> None:
    sys.path.insert(0, str(E2E))
    try:
        import checking
        import workloads
    finally:
        sys.path.remove(str(E2E))
    collector.attribute_to("e2e fixture")
    workloads.synthesize_fixture(root / "fixture")
    fixture = workloads.Fixture(root / "fixture", root)
    reference = workloads.reference_executor(fixture)
    for workload in workloads.WORKLOADS.values():
        collector.attribute_to(f"e2e {workload.name}")
        _guarded(collector, f"e2e {workload.name}", _drive, workload, fixture,
                 reference, checking.summarize)


def _drive(workload, fixture, reference, summarize) -> None:
    warm, timed = workload.op_counts(15.0, smoke=True)
    ops = workload.make_ops(SEED, warm + timed)
    state = workload.setup(fixture, SEED)
    try:
        for index, sql in enumerate(ops):
            client = index % workload.clients
            got = summarize(workload.answer(state, sql, client))
            want = summarize(reference.execute(sql).result)
            if got != want:
                raise AssertionError(f"op {index}: got {got}, want {want}")
        workload.counters(state)
        workload.reused_share(state)
    finally:
        workload.teardown(state)


def _benchmarks(collector: Collector) -> None:
    import pytest

    class Attribute:
        def pytest_runtest_setup(self, item):
            collector.attribute_to(item.nodeid.split("::")[0])

        def pytest_runtest_logreport(self, report):
            if report.failed:
                _trip(collector, report.nodeid,
                      report.longreprtext.strip().splitlines()[-1:])

        pytest_collectreport = pytest_runtest_logreport

    # The scripts import their helpers (bench_json) as a script run would.
    benchmarks = REPO_ROOT / "benchmarks"
    scripts = sorted(str(p) for p in benchmarks.glob("bench_*.py"))
    os.environ["REPRO_BENCH_SCALE"] = "tiny"
    sys.path.insert(0, str(benchmarks))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            pytest.main(
                ["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                 "--rootdir", str(REPO_ROOT), *scripts],
                plugins=[Attribute()],
            )
    finally:
        sys.path.remove(str(benchmarks))


def _guarded(collector: Collector, label: str, function, *args) -> None:
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            status = function(*args)
    except BaseException as exc:  # noqa: BLE001 - a trip, not a stop
        if isinstance(exc, KeyboardInterrupt):
            raise
        if isinstance(exc, SystemExit) and exc.code in (None, 0):
            return
        lines = traceback.format_exception_only(type(exc), exc)
        _trip(collector, label, [lines[-1].strip()])
        return
    if isinstance(status, int) and status != 0:
        _trip(collector, label, [f"exit status {status}"])


def _trip(collector: Collector, label: str, why: list[str]) -> None:
    note = f"{label}: {' '.join(why) or 'failed'}"
    collector.notes.append(note)
    print(f"trip: {note}", file=sys.stderr)


def run(out: Path) -> int:
    collector = Collector(PACKAGE)
    started = time.perf_counter()
    collector.start()
    try:
        with tempfile.TemporaryDirectory(prefix="reach-entry-") as scratch:
            root = Path(scratch)
            for example in sorted((REPO_ROOT / "examples").glob("*.py")):
                label = example.relative_to(REPO_ROOT).as_posix()
                collector.attribute_to(label)
                _guarded(collector, label, runpy.run_path, str(example),
                         None, "__main__")
            _cli(collector, root)
            _e2e(collector, root)
        _benchmarks(collector)
    finally:
        collector.stop()
    out.write_text(json.dumps(collector.to_json()))
    print(
        f"entry pass: {len(collector.owners) - 1} roots in "
        f"{time.perf_counter() - started:.0f} s, {len(collector.notes)} "
        f"trip(s); wrote {out}"
    )
    return 0
