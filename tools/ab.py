"""Paired parent / change runs of the end-to-end benchmark, one command.

    python -m tools.ab PARENT --label NAME [--pairs 10] [--seeds 7 43]
                       [--claim WORKLOAD:METRIC ...]
    python -m tools.ab --table BENCH_NAME.json

Exports revision PARENT (``git archive``, into a temporary directory outside
the repository) and runs ``benchmarks/e2e/run.py`` there and in this working
tree, alternately, ``--pairs`` times per seed: the parent runs first in even
pairs, the change in odd ones. Each side builds its own fixture under its
own ``.bench_build/``; the working tree's cached fixtures are removed
before the first pair, since the fixture key hashes only the format's
source and a cached fixture keeps a sidecar another writer made.
``BENCH_<label>.json`` at the repository root then
holds every run's value per workload × end-to-end metric, each side's median
and quartiles, the wins, and a verdict per cell against ``BENCHMARK.json``:

* a claimed cell is *claim met* when the change wins at least nine tenths of
  the pairs (ties count for neither) and the medians differ, in its better
  direction, by more than the parent's quartile distance;
* any other cell is *worse* when the change's median is worse than the
  parent's by more than the metric's bound; *unresolved* when either side's
  quartile distance exceeds the bound (unless every change run beats every
  parent run: *better*); *better* when the median improved by more than
  the bound; *within bound* otherwise.

``--table`` prints a saved file's cells as a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# (checkout, seed) -> {workload: result object as run.py prints it}
Runner = Callable[[Path, int], dict[str, dict[str, Any]]]


def e2e_runner(workloads: Sequence[str]) -> Runner:
    """Run ``benchmarks/e2e/run.py`` in a checkout; its last lines are one
    result object per declared workload, in declaration order."""

    def run(checkout: Path, seed: int) -> dict[str, dict[str, Any]]:
        done = subprocess.run(
            [sys.executable, "benchmarks/e2e/run.py", "--seed", str(seed)],
            cwd=checkout, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()[-len(workloads):]
        if len(lines) < len(workloads):
            raise RuntimeError(f"{checkout}: run.py printed no results:\n"
                               f"{done.stderr[-2000:]}")
        return {name: json.loads(line) for name, line in zip(workloads, lines)}

    return run


def export(revision: str, target: Path) -> str:
    """Write ``revision``'s tree into ``target``; returns its full hash."""
    full = subprocess.run(
        ["git", "rev-parse", revision], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", full], cwd=ROOT,
        capture_output=True, check=True,
    ).stdout
    target.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return full


def clear_fixtures(checkout: Path) -> list[Path]:
    """Remove the end-to-end fixtures built under ``checkout``, so its next
    run builds one with its own code; returns what went."""
    built = sorted((checkout / ".bench_build").glob("e2e-fixture-*"))
    for path in built:
        shutil.rmtree(path)
    return built


def measure(
    runner: Runner, checkouts: dict[str, Path], seeds: Sequence[int],
    pairs: int, log: Callable[[str], None] = lambda line: None,
) -> list[dict[str, Any]]:
    """``pairs`` pairs per seed, alternating which side runs first."""
    runs = []
    for seed in seeds:
        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            run: dict[str, Any] = {"seed": seed, "order": list(order)}
            for side in order:
                run[side] = runner(checkouts[side], seed)
                log(f"seed {seed} pair {pair} {side}: " + ", ".join(
                    f"{w} {r['metrics']['answer_ms_p50']['value']:.4g}"
                    for w, r in run[side].items()
                    if "answer_ms_p50" in r["metrics"]
                ))
            runs.append(run)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _cell(
    values: dict[str, list[float]], metric: dict[str, Any], claimed: bool
) -> dict[str, Any]:
    """One workload × metric: both sides' spread, the wins, the verdict."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent, change = values["parent"], values["change"]
    (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
    # In "cost" terms (sign * value) lower is better on every metric.
    cost_p, cost_c = [sign * v for v in parent], [sign * v for v in change]
    wins = sum(c < p for p, c in zip(cost_p, cost_c))
    ties = sum(c == p for p, c in zip(cost_p, cost_c))
    gain = sign * (pm - cm)  # > 0: the change's median is better
    if claimed:
        met = wins >= 0.9 * len(parent) and gain > p3 - p1
        verdict = "claim met" if met else "claim not met"
    elif pm and -gain / abs(pm) > metric["bound"]:
        verdict = "worse"
    elif pm and max(p3 - p1, c3 - c1) / abs(pm) > metric["bound"]:
        verdict = "better" if max(cost_c) < min(cost_p) else "unresolved"
    elif pm and gain / abs(pm) > metric["bound"]:
        verdict = "better"
    else:
        verdict = "within bound"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "values": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "values": change},
        "relative_change": (cm - pm) / abs(pm) if pm else 0.0,
        "wins": wins, "ties": ties, "pairs": len(parent),
        "claimed": claimed, "verdict": verdict,
    }


def summarize(
    runs: list[dict[str, Any]], declaration: dict[str, Any],
    claims: Sequence[str],
) -> dict[str, Any]:
    """Cells for every declared workload × end-to-end metric, the
    correctness of every run, and the overall verdict."""
    workloads = [w["name"] for w in declaration["workloads"]]
    cells = []
    for workload in workloads:
        for metric in declaration["end_to_end"]:
            values = {
                side: [r[side][workload]["metrics"][metric["name"]]["value"]
                       for r in runs]
                for side in SIDES
            }
            cell = _cell(values, metric, f"{workload}:{metric['name']}" in claims)
            cells.append({"workload": workload, "metric": metric["name"],
                          "unit": metric["unit"], "better": metric["better"],
                          "bound": metric["bound"], **cell})
    failed = {
        side: sum(r[side][w]["failed"] for r in runs for w in workloads)
        / max(1, sum(r[side][w]["attempted"] for r in runs for w in workloads))
        for side in SIDES
    }
    correct = all(r[side][w]["correct"] for r in runs for side in SIDES
                  for w in workloads)
    passed = (
        correct and failed["change"] <= failed["parent"]
        and all(c["verdict"] not in ("worse", "claim not met") for c in cells)
    )
    return {"cells": cells, "all_correct": correct, "failed_share": failed,
            "verdict": "pass" if passed else "fail"}


def table(report: dict[str, Any]) -> str:
    """The cells as Markdown: median [q1, q3] per side, change, wins."""

    def side(stats: dict[str, float]) -> str:
        return f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}]"

    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3]"
        " | Δ median | wins | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for c in report["cells"]:
        metric = f"**{c['metric']}**" if c["claimed"] else c["metric"]
        lines.append(
            f"| {c['workload']} | {metric} | {side(c['parent'])} | "
            f"{side(c['change'])} | {c['relative_change']:+.1%} | "
            f"{c['wins']}/{c['pairs']} | {c['verdict']} |"
        )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="the revision to compare with")
    parser.add_argument("--label", help="writes BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    parser.add_argument("--claim", nargs="*", default=[],
                        metavar="WORKLOAD:METRIC", help="the claimed cells")
    parser.add_argument("--table", metavar="BENCH_JSON",
                        help="print a saved file's table and exit")
    args = parser.parse_args(argv)
    if args.table:
        print(table(json.loads(Path(args.table).read_text())))
        return 0
    if not args.parent or not args.label:
        parser.error("PARENT and --label are required")
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declaration["workloads"]]
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as scratch:
        parent_tree = Path(scratch) / "tree"
        parent_hash = export(args.parent, parent_tree)
        clear_fixtures(ROOT)
        runs = measure(
            e2e_runner(workloads),
            {"parent": parent_tree, "change": ROOT}, args.seeds, args.pairs,
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
    report = {
        "label": args.label,
        "parent": parent_hash,
        "change": subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=False,
        ).stdout.strip(),
        "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "claims": args.claim,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        **summarize(runs, declaration, args.claim),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(table(report))
    print(f"verdict: {report['verdict']} ({out.name})")
    return 0 if report["verdict"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
