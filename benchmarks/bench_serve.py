"""Experiment A9 — the service's shared-work win over independent sessions.

The acceptance question for the service layer is quantitative: when N
clients explore the *same* archive at the same time, how many bytes does the
shared mount scheduler keep off the disk relative to N scientists each
running their own session — without changing a single answer?

Method: :func:`repro.serve.driver.build_workload` builds N clients x Q
queries in the service's target regime (every client's q-th query touches
the same file; every client asks a distinct nested window, so no two
answers are equal). The workload runs twice:

* through one :class:`~repro.serve.QueryService` (one closed-loop thread
  per client, released together off a barrier), and
* as N independent sessions — fresh executor and private cache per client,
  nothing shared (:func:`~repro.serve.driver.run_standalone_baseline`).

Reported per run: service p50/p99 latency, standalone p50, aggregate
mounted bytes on both sides, the savings ratio, and the scheduler's
sharing counters. Non-quick mode asserts the acceptance floor — every
answer byte-identical and aggregate savings of at least ``SAVINGS_FLOOR``x
at N=8 — and exits 1 otherwise. The savings ratio depends on when the
clients' threads happen to arrive, so one run of it is a coin flip:
``--repeat N`` runs the configuration N times, reports the minimum and
median over the runs, and holds the *minimum* to the floor.

Run as a script (CI smoke-checks ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick
    PYTHONPATH=src python benchmarks/bench_serve.py --json out.json
    PYTHONPATH=src python benchmarks/bench_serve.py --repeat 10
"""

from __future__ import annotations

import argparse
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from bench_json import add_json_argument, maybe_emit_json
from repro.harness.setup import materialize_repository, small_spec, tiny_spec
from repro.serve import ComparisonReport, QueryService, run_comparison

# Non-quick acceptance floor: the service must mount at most half the bytes
# of N independent sessions on the overlapping workload (the perfect-overlap
# limit at N=8 is 8x; 2x leaves headroom for scheduling accidents).
SAVINGS_FLOOR = 2.0
FULL_CLIENTS = 8
QUICK_CLIENTS = 4


@dataclass
class ServeRun:
    """One N-client configuration, measured both ways."""

    clients: int
    queries_per_client: int
    mount_workers: int
    identical: bool
    savings_ratio: float
    service_mount_bytes: int
    baseline_mount_bytes: int
    service_p50_ms: float
    service_p99_ms: float
    baseline_p50_ms: float
    service_wall_seconds: float
    baseline_wall_seconds: float
    shared_grants: int
    inline_steals: int
    max_wait_ms: float
    cache_hits: int
    cache_hit_rate: float
    queries_shed: int


def summarize(report: ComparisonReport, mount_workers: int) -> ServeRun:
    sched = report.service_stats.scheduler
    return ServeRun(
        clients=report.clients,
        queries_per_client=report.queries_per_client,
        mount_workers=mount_workers,
        identical=report.identical,
        savings_ratio=report.bytes_savings_ratio,
        service_mount_bytes=report.service.mount_bytes,
        baseline_mount_bytes=report.baseline.mount_bytes,
        service_p50_ms=report.service.percentile(50) * 1e3,
        service_p99_ms=report.service.percentile(99) * 1e3,
        baseline_p50_ms=report.baseline.percentile(50) * 1e3,
        service_wall_seconds=report.service.wall_seconds,
        baseline_wall_seconds=report.baseline.wall_seconds,
        shared_grants=sched.shared_grants,
        inline_steals=sched.inline_steals,
        max_wait_ms=sched.max_wait_seconds * 1e3,
        cache_hits=report.service_stats.cache.hits,
        cache_hit_rate=report.service_stats.cache.hit_rate(),
        queries_shed=report.service_stats.queries_shed,
    )


def run_configuration(
    repository,
    spec,
    clients: int,
    queries_per_client: int,
    mount_workers: int,
) -> tuple[ServeRun, ComparisonReport]:
    service = QueryService(repository, mount_workers=mount_workers)
    try:
        report = run_comparison(
            repository,
            spec,
            clients=clients,
            queries_per_client=queries_per_client,
            service=service,
        )
    finally:
        service.close()
    return summarize(report, mount_workers), report


def render(runs: list[ServeRun]) -> str:
    header = (
        f"{'clients':>7} {'p50':>9} {'p99':>9} {'alone p50':>10} "
        f"{'bytes':>12} {'alone':>12} {'saved':>7} {'shared':>7} {'ok':>3}"
    )
    lines = [header]
    for r in runs:
        lines.append(
            f"{r.clients:>7} "
            f"{r.service_p50_ms:>7.1f}ms {r.service_p99_ms:>7.1f}ms "
            f"{r.baseline_p50_ms:>8.1f}ms "
            f"{r.service_mount_bytes:>12,} {r.baseline_mount_bytes:>12,} "
            f"{r.savings_ratio:>6.2f}x {r.shared_grants:>7} "
            f"{'yes' if r.identical else 'NO':>3}"
        )
    return "\n".join(lines)


@dataclass
class RepeatSummary:
    """The runs' spread of the timing-dependent numbers."""

    runs: int
    identical: bool
    savings_min: float
    savings_median: float
    service_p50_ms_min: float
    service_p50_ms_median: float


def summarize_repeats(runs: list[ServeRun]) -> RepeatSummary:
    return RepeatSummary(
        runs=len(runs),
        identical=all(r.identical for r in runs),
        savings_min=min(r.savings_ratio for r in runs),
        savings_median=statistics.median(r.savings_ratio for r in runs),
        service_p50_ms_min=min(r.service_p50_ms for r in runs),
        service_p50_ms_median=statistics.median(r.service_p50_ms for r in runs),
    )


def render_repeats(s: RepeatSummary) -> str:
    return "\n".join([
        f"{'runs':>5} {'saved min':>10} {'median':>8} "
        f"{'p50 min':>9} {'median':>9} {'ok':>3}",
        f"{s.runs:>5} {s.savings_min:>9.2f}x "
        f"{s.savings_median:>7.2f}x {s.service_p50_ms_min:>7.1f}ms "
        f"{s.service_p50_ms_median:>7.1f}ms "
        f"{'yes' if s.identical else 'NO':>3}",
    ])


# -- pytest entry point --------------------------------------------------------


def test_serve_quick():
    """Smoke: identical answers and strict byte savings at small N."""
    spec = tiny_spec()
    repository = materialize_repository(spec)
    run, report = run_configuration(
        repository,
        spec,
        clients=QUICK_CLIENTS,
        queries_per_client=2,
        mount_workers=2,
    )
    print()
    print(render([run]))
    assert run.identical, f"answers diverged: {report.mismatches[:5]}"
    assert run.service_mount_bytes < run.baseline_mount_bytes
    assert run.queries_shed == 0


# -- script entry point --------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Shared-work service vs N independent sessions"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny repository, 4 clients, no savings-floor assertion; "
        "CI uses this",
    )
    parser.add_argument(
        "--clients", type=int, default=None, metavar="N",
        help=f"override the client count (default: {FULL_CLIENTS}, "
        f"quick: {QUICK_CLIENTS})",
    )
    parser.add_argument("--queries-per-client", type=int, default=3)
    parser.add_argument("--mount-workers", type=int, default=2, metavar="N")
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the configuration N times; the floor applies to the "
        "minimum savings (default: 1)",
    )
    add_json_argument(parser)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    spec = tiny_spec() if args.quick else small_spec()
    clients = args.clients or (QUICK_CLIENTS if args.quick else FULL_CLIENTS)
    queries = 2 if args.quick else args.queries_per_client
    repository = materialize_repository(spec)
    print(
        f"repository: {len(repository.uris())} files, "
        f"{repository.total_bytes():,} bytes"
    )

    runs: list[ServeRun] = []
    for _ in range(args.repeat):
        run, report = run_configuration(
            repository,
            spec,
            clients=clients,
            queries_per_client=queries,
            mount_workers=args.mount_workers,
        )
        runs.append(run)
    print(render(runs))
    print()
    summary = summarize_repeats(runs)
    if args.repeat > 1:
        print(render_repeats(summary))
        print()
    print(report.service_stats.describe())

    identical = summary.identical
    floor_met = summary.savings_min >= SAVINGS_FLOOR
    maybe_emit_json(
        args.json,
        "serve",
        params={
            "quick": args.quick,
            "clients": clients,
            "queries_per_client": queries,
            "mount_workers": args.mount_workers,
            "repeat": args.repeat,
            "files": len(repository.uris()),
            "savings_floor": SAVINGS_FLOOR,
        },
        results={
            "runs": runs,
            "summary": summary,
            "identical": identical,
            "floor_met": floor_met,
        },
    )
    if not identical:
        print("FAIL: service answers diverged from independent sessions")
        return 1
    if not args.quick and not floor_met:
        print(
            f"FAIL: byte savings below the {SAVINGS_FLOOR:.1f}x floor: "
            f"{summary.savings_min:.2f}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
