"""Experiment A8 — query governor overhead and cancellation latency.

The governor threads a checkpoint between every physical operator, a charge
into every extraction, and an event-based wait under every backoff — so the
question this benchmark answers is whether governance is free when nothing
fires. Method: the A6 workload (cold, whole-repository aggregate, mounted
inline by a standalone executor) runs ungoverned (no budget — the executor still creates a
governor, but with nothing to enforce) and governed (a budget with huge
limits, so every checkpoint, ledger charge, and deadline timer is live but
never trips). Best-of-``runs`` wall times are compared; the governed run
must stay within 2% of baseline (asserted in non-quick mode and recorded in
the ``--json`` envelope either way).

The second measurement is cancellation latency: a query against a corpus
whose every read stalls (injected latency, wired to the query's token) is
cancelled from another thread; reported is the wall time from ``cancel()``
to the typed error surfacing — the number the event-based waits exist to
keep in the low milliseconds.

Run as a script (CI smoke-checks ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_governor.py --quick
    PYTHONPATH=src python benchmarks/bench_governor.py --runs 5 --json out.json
"""

from __future__ import annotations

import argparse
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from bench_json import add_json_argument, maybe_emit_json
from bench_parallel_mount import FULL_SQL, mount_heavy_spec, quick_spec
from repro.core import CancellationToken, QueryBudget, TwoStageExecutor
from repro.db import Database
from repro.db.errors import QueryCancelledError
from repro.harness.setup import materialize_repository
from repro.ingest import RepositoryBinding, lazy_ingest_metadata
from repro.mseed import FileRepository
from repro.testing import READ_LATENCY, FaultPlan, FaultSpec

OVERHEAD_CEILING = 0.02  # governed wall time may exceed baseline by <=2%

# A budget that never trips: every limit is live but absurdly high, so the
# measured cost is pure machinery (timer, checkpoints, ledger charges).
HUGE_BUDGET = QueryBudget(
    deadline_seconds=3600.0,
    max_mount_bytes=1 << 50,
    max_decoded_records=1 << 50,
)


@dataclass
class GovernedRun:
    """Best-of-N cold execution under one governance setting."""

    label: str
    wall_seconds: float  # wall CPU + simulated disk (repo convention)
    rows: list[tuple]


@dataclass
class CancellationRun:
    """One cancelled query: how long the cancel took to surface."""

    cancel_latency_seconds: float
    total_seconds: float


def _cold_executor(repository: FileRepository) -> TwoStageExecutor:
    db = Database()
    lazy_ingest_metadata(db, repository)
    executor = TwoStageExecutor(db, RepositoryBinding(repository))
    db.make_cold()
    return executor


def run_workload(
    repository: FileRepository,
    runs: int,
    budget: Optional[QueryBudget],
    label: str,
) -> GovernedRun:
    best: Optional[GovernedRun] = None
    for _ in range(runs):
        executor = _cold_executor(repository)
        started = time.perf_counter()
        outcome = executor.execute(FULL_SQL, budget=budget)
        wall = (
            time.perf_counter() - started
            + outcome.result.io.simulated_seconds
        )
        run = GovernedRun(label=label, wall_seconds=wall, rows=outcome.rows)
        if best is None or run.wall_seconds < best.wall_seconds:
            best = run
    assert best is not None
    return best


def measure_overhead(
    repository: FileRepository, runs: int
) -> tuple[GovernedRun, GovernedRun, float]:
    """(baseline, governed, relative overhead) on the A6 workload."""
    baseline = run_workload(repository, runs, None, "ungoverned")
    governed = run_workload(repository, runs, HUGE_BUDGET, "governed")
    if governed.rows != baseline.rows:
        raise AssertionError(
            "governance changed the answer: "
            f"{baseline.rows!r} -> {governed.rows!r}"
        )
    overhead = (
        governed.wall_seconds - baseline.wall_seconds
    ) / baseline.wall_seconds
    return baseline, governed, overhead


def measure_cancellation(
    repository: FileRepository, cancel_after: float = 0.05
) -> CancellationRun:
    """Cancel a latency-stalled query; report cancel-to-error latency."""
    executor = _cold_executor(repository)
    token = CancellationToken()
    plan = FaultPlan(
        [
            FaultSpec(
                uri_suffix=uri,
                kind=READ_LATENCY,
                times=-1,
                delay_seconds=5.0,
            )
            for uri in repository.uris()
        ],
        interrupt=token,
    )
    cancelled_at: list[float] = []

    def fire() -> None:
        cancelled_at.append(time.perf_counter())
        token.cancel("benchmark cancellation")

    timer = threading.Timer(cancel_after, fire)
    started = time.perf_counter()
    timer.start()
    with plan.install():
        try:
            executor.execute(FULL_SQL, cancellation=token)
            raise AssertionError("cancelled query returned normally")
        except QueryCancelledError:
            surfaced_at = time.perf_counter()
    return CancellationRun(
        cancel_latency_seconds=surfaced_at - cancelled_at[0],
        total_seconds=surfaced_at - started,
    )


def render(
    baseline: GovernedRun,
    governed: GovernedRun,
    overhead: float,
    cancellation: CancellationRun,
) -> str:
    return "\n".join(
        [
            f"{'setting':>12} {'wall':>10}",
            f"{baseline.label:>12} {baseline.wall_seconds * 1000:>8.1f}ms",
            f"{governed.label:>12} {governed.wall_seconds * 1000:>8.1f}ms",
            f"governor overhead: {overhead * 100:+.2f}% "
            f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)",
            f"cancellation latency: "
            f"{cancellation.cancel_latency_seconds * 1000:.1f}ms "
            f"(cancel() to typed error, mounts stalled 5s/read)",
        ]
    )


# -- pytest entry point --------------------------------------------------------


def test_governor_overhead_quick():
    """Smoke: identical answers, overhead measured, cancellation surfaces."""
    repository = materialize_repository(quick_spec())
    baseline, governed, overhead = measure_overhead(repository, runs=2)
    cancellation = measure_cancellation(repository)
    print()
    print(render(baseline, governed, overhead, cancellation))
    assert governed.rows == baseline.rows
    assert cancellation.cancel_latency_seconds < 1.0


# -- script entry point --------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Query governor: overhead when idle, latency when fired"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="8-file smoke run (no overhead assertion); CI uses this",
    )
    parser.add_argument("--runs", type=int, default=3)
    add_json_argument(parser)
    args = parser.parse_args(argv)

    spec = quick_spec() if args.quick else mount_heavy_spec()
    repository = materialize_repository(spec)
    print(
        f"repository: {len(repository.uris())} files, "
        f"{repository.total_bytes():,} bytes"
    )
    baseline, governed, overhead = measure_overhead(repository, args.runs)
    cancellation = measure_cancellation(repository)
    print(render(baseline, governed, overhead, cancellation))
    passed = overhead <= OVERHEAD_CEILING
    maybe_emit_json(
        args.json,
        "governor",
        params={
            "quick": args.quick,
            "runs": args.runs,
            "files": len(repository.uris()),
            "sql": FULL_SQL,
            "overhead_ceiling": OVERHEAD_CEILING,
        },
        results={
            "baseline": baseline,
            "governed": governed,
            "overhead": overhead,
            "overhead_within_ceiling": passed,
            "cancellation": cancellation,
        },
    )
    if not args.quick and not passed:
        print(
            f"FAIL: governor overhead {overhead * 100:.2f}% exceeds the "
            f"{OVERHEAD_CEILING * 100:.0f}% ceiling"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
