"""``tools/ab.py`` over a fake runner: no benchmark runs here."""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT))

from tools.ab import clear_fixtures, measure, summarize, table  # noqa: E402

DECLARATION = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]


class FakeRunner:
    """Result objects as run.py prints them: ``scan_wide``'s answer time
    drops from about 40 to about 27 ms on the change, ``explore_narrow``'s
    rises by ``narrow_slowdown``, everything else repeats the parent."""

    def __init__(self, narrow_slowdown: float = 1.0, incorrect: bool = False):
        self.calls: list[tuple[str, int]] = []
        self.narrow_slowdown = narrow_slowdown
        self.incorrect = incorrect

    def __call__(self, checkout: Path, seed: int) -> dict:
        side = checkout.name
        jitter = 0.01 * (len(self.calls) % 3)
        self.calls.append((side, seed))
        results = {}
        for workload in WORKLOADS:
            metrics = {m["name"]: 100.0 * (1 + jitter)
                       for m in DECLARATION["end_to_end"]}
            if workload == "scan_wide":
                metrics["answer_ms_p50"] = (27.0 if side == "change" else 40.0) + jitter
            if workload == "explore_narrow" and side == "change":
                metrics["answer_ms_p50"] *= self.narrow_slowdown
            results[workload] = {
                "correct": not (self.incorrect and side == "change"),
                "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
            }
        return results


CHECKOUTS = {"parent": Path("/parent"), "change": Path("/change")}
CLAIM = ["scan_wide:answer_ms_p50"]


def cell(report: dict, workload: str, metric: str) -> dict:
    (found,) = [c for c in report["cells"]
                if (c["workload"], c["metric"]) == (workload, metric)]
    return found


def test_pairs_alternate_which_side_runs_first():
    runner = FakeRunner()
    runs = measure(runner, CHECKOUTS, seeds=[7, 43], pairs=3)
    assert [r["order"][0] for r in runs] == [
        "parent", "change", "parent", "parent", "change", "parent"
    ]
    assert [seed for _, seed in runner.calls] == [7] * 6 + [43] * 6
    assert all(set(r) == {"seed", "order", "parent", "change"} for r in runs)


def test_claim_met_and_every_other_cell_within_bound():
    runs = measure(FakeRunner(), CHECKOUTS, seeds=[7], pairs=10)
    report = summarize(runs, DECLARATION, CLAIM)
    claimed = cell(report, "scan_wide", "answer_ms_p50")
    assert claimed["verdict"] == "claim met"
    assert (claimed["wins"], claimed["pairs"]) == (10, 10)
    assert claimed["parent"]["values"][0] == 40.0
    assert claimed["parent"]["q1"] <= claimed["parent"]["median"]
    assert claimed["parent"]["median"] <= claimed["parent"]["q3"]
    others = [c for c in report["cells"] if not c["claimed"]]
    assert len(others) == len(WORKLOADS) * len(DECLARATION["end_to_end"]) - 1
    assert {c["verdict"] for c in others} == {"within bound"}
    assert report["verdict"] == "pass"
    assert "| scan_wide | **answer_ms_p50** |" in table(report)


def test_a_regression_past_its_bound_fails_the_run():
    runs = measure(FakeRunner(narrow_slowdown=1.5), CHECKOUTS, [7], pairs=10)
    report = summarize(runs, DECLARATION, CLAIM)
    assert cell(report, "explore_narrow", "answer_ms_p50")["verdict"] == "worse"
    assert report["verdict"] == "fail"


def test_a_claim_inside_the_parents_spread_is_not_met():
    runs = measure(FakeRunner(), CHECKOUTS, [7], pairs=10)
    report = summarize(runs, DECLARATION, ["first_answer:answer_ms_p50"])
    assert cell(report, "first_answer", "answer_ms_p50")["verdict"] == (
        "claim not met"
    )
    assert report["verdict"] == "fail"


def test_an_incorrect_answer_fails_the_run():
    runs = measure(FakeRunner(incorrect=True), CHECKOUTS, [7], pairs=2)
    report = summarize(runs, DECLARATION, [])
    assert not report["all_correct"]
    assert report["verdict"] == "fail"


def test_the_working_trees_cached_fixtures_are_cleared(tmp_path):
    build = tmp_path / ".bench_build"
    for name in ("e2e-fixture-12ff34714418", "e2e-fixture-b7a587067f3f"):
        (build / name / "objects").mkdir(parents=True)
        (build / name / "remote-metastore.json").write_text("{}")
    (build / "run-kept").mkdir()
    removed = clear_fixtures(tmp_path)
    assert [p.name for p in removed] == [
        "e2e-fixture-12ff34714418", "e2e-fixture-b7a587067f3f"
    ]
    assert [p.name for p in build.iterdir()] == ["run-kept"]
    assert clear_fixtures(tmp_path / "never-built") == []
