"""Determinism and shape checks for the end-to-end benchmark runner.

Run explicitly (tier-1's ``testpaths`` stays ``tests``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_runner.py -q

The runs here use ``--smoke`` (op counts / 20): they check what the runner
prints and that counts repeat, not how fast anything is.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in DECLARATION["workloads"]]
SINGLE_CLIENT = [n for n in WORKLOAD_NAMES if workloads.WORKLOADS[n].clients == 1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *arguments],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )


def results(completed: subprocess.CompletedProcess) -> dict[str, dict]:
    """The result objects, one per workload, in declaration order."""
    lines = completed.stdout.strip().splitlines()[-len(WORKLOAD_NAMES):]
    return dict(zip(WORKLOAD_NAMES, (json.loads(line) for line in lines)))


@pytest.fixture(scope="module")
def smoke() -> subprocess.CompletedProcess:
    completed = run("--smoke", "--seed", "7")
    assert completed.returncode == 0, completed.stderr
    return completed


@pytest.fixture(scope="module")
def traced_smoke() -> subprocess.CompletedProcess:
    completed = run("--smoke", "--seed", "7", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    return completed


def test_declaration_is_within_the_contract() -> None:
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARATION["paths"] == ["benchmarks/e2e"]
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    names = []
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_smoke_prints_exactly_the_declared_names(kind, smoke, traced_smoke) -> None:
    completed = smoke if kind == "end_to_end" else traced_smoke
    declared = {m["name"]: m["unit"] for m in DECLARATION[kind]}
    for workload, result in results(completed).items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for name, unit in declared.items():
            line = re.compile(
                rf"^{re.escape(workload)}\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                re.MULTILINE,
            )
            assert line.search(completed.stdout), (workload, name)
    # On the current tree every wrap target resolves: no metric reads null.
    if kind == "per_layer":
        for result in results(completed).values():
            assert all(v["value"] is not None for v in result["metrics"].values())


def test_same_seed_same_ops_and_another_seed_other_ops() -> None:
    for workload in workloads.WORKLOADS.values():
        assert workload.make_ops(7, 40) == workload.make_ops(7, 40)
        assert workload.make_ops(7, 40) != workload.make_ops(8, 40)
        # A shorter run replays a prefix, so committed expectations carry over.
        assert workload.make_ops(7, 40)[:15] == workload.make_ops(7, 15)


def test_counts_repeat_exactly_with_one_client(smoke, traced_smoke) -> None:
    again = results(run("--smoke", "--seed", "7"))
    traced_again = results(run("--smoke", "--seed", "7", "--trace", "1"))
    first, traced_first = results(smoke), results(traced_smoke)
    counted = ["mseed.opens", "mseed.bytes_read", "core.mount_file_calls",
               "core.cache.hit_rate", "core.cache.evictions",
               "ingest.samples_mounted", "mseed.repository.listings"]
    for workload in SINGLE_CLIENT:
        name = "source_bytes_per_answer"
        assert (first[workload]["metrics"][name]
                == again[workload]["metrics"][name]), workload
        for name in counted:
            assert (traced_first[workload]["metrics"][name]
                    == traced_again[workload]["metrics"][name]), (workload, name)


def test_every_wrap_target_resolves_on_this_tree() -> None:
    completed = run("--list-spans")
    assert completed.returncode == 0, completed.stdout
    assert "UNRESOLVED" not in completed.stdout
    assert len(completed.stdout.strip().splitlines()) == len(spans.TARGETS)


def test_a_vanished_target_is_skipped_not_fatal() -> None:
    gone = spans.Target("x.gone", "repro.mseed.volume", "no_such_function")
    assert spans.resolve(gone) is None
    assert spans.resolve(spans.Target("x", "repro.no_such_module", "f")) is None


def test_self_time_is_span_minus_children() -> None:
    def span(id, name, start, end, parent):
        return spans.Span(id, name, start, end, parent, 0, "ops", "main")

    index = spans.SpanIndex([
        span(1, "core.execute", 0.0, 10.0, None),
        span(2, "db.stage2", 1.0, 8.0, 1),
        span(3, "core.mount_file", 2.0, 5.0, 2),
        span(4, "mseed.repository.len", 8.0, 9.5, 1),
        span(5, "mseed.repository.uris", 8.1, 9.4, 4),
    ])
    assert index.self_seconds("core.execute") == pytest.approx(1.5)
    assert index.self_seconds("db.stage2") == pytest.approx(4.0)
    # Nested same-layer spans count once, at the outermost one.
    listing = ("mseed.repository.uris", "mseed.repository.len")
    assert index.busy(*listing) == pytest.approx(1.5)
    assert index.calls(*listing) == 1
    assert index.top_level_seconds() == pytest.approx(10.0)


def test_only_the_cpu_busy_share_is_scaled_by_the_box_speed() -> None:
    import time

    def twice_as_slow() -> float:
        return 2 * reference.NOMINAL_SECONDS

    busy = reference.SpeedGauge(twice_as_slow)
    busy.begin(samples=1)
    until = time.perf_counter() + 0.1
    while time.perf_counter() < until:
        pass
    busy.end(samples=1)
    assert busy.scale == pytest.approx(0.5, abs=0.1)

    waiting = reference.SpeedGauge(twice_as_slow)
    waiting.begin(samples=1)
    time.sleep(0.1)
    waiting.end(samples=1)
    assert waiting.scale == pytest.approx(1.0, abs=0.1)
