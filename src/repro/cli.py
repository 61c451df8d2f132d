"""Command-line interface: ``python -m repro <command>``.

Commands cover the whole zero-to-exploration path:

* ``generate`` — synthesize an xSEED repository,
* ``inspect``  — repository statistics from header-only scans,
* ``load``     — ingest (eagerly or metadata-only) and persist a database,
* ``query``    — run SQL: against a persisted database, or two-stage with
  automated lazy ingestion straight against a repository,
* ``bench``    — regenerate the paper's Table 1 / Figure 3 at a chosen scale,
* ``serve``    — stand up the multi-query service over a repository and
  drive N simulated clients through it, reporting per-query latency
  percentiles, aggregate bytes saved versus independent sessions, and the
  scheduler's sharing/fairness counters.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from .core import QueryBudget, TwoStageExecutor
from .db import Database, DatabaseError
from .ingest import RepositoryBinding, eager_ingest, lazy_ingest_metadata
from .mseed import FileRepository, RepositorySpec, generate_repository


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-stage query execution with automated lazy ingestion",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "generate", help="synthesize an xSEED file repository"
    )
    gen.add_argument("--root", required=True, help="output directory")
    gen.add_argument("--stations", default="ISK,ANK,IZM")
    gen.add_argument("--channels", default="BHE,BHN,BHZ")
    gen.add_argument("--days", type=int, default=2)
    gen.add_argument("--start-day", default="2010-01-10")
    gen.add_argument("--sample-rate", type=float, default=0.1)
    gen.add_argument("--samples-per-record", type=int, default=1800)
    gen.add_argument("--seed", type=int, default=2013)

    inspect = commands.add_parser(
        "inspect", help="repository statistics (header-only)"
    )
    inspect.add_argument("--repo", required=True)

    load = commands.add_parser(
        "load", help="ingest a repository and persist the database"
    )
    load.add_argument("--repo", required=True)
    load.add_argument("--db", required=True, help="database directory to write")
    load.add_argument(
        "--mode", choices=("eager", "lazy"), default="lazy",
        help="eager = Ei (full load + indexes); lazy = ALi metadata only",
    )

    query = commands.add_parser("query", help="run one SQL query")
    query.add_argument("sql")
    source = query.add_mutually_exclusive_group(required=False)
    source.add_argument("--db", help="persisted database directory")
    source.add_argument(
        "--repo", help="repository: metadata loads on the fly, two-stage "
        "execution mounts files of interest",
    )
    query.add_argument(
        "--remote", action="append", default=[], metavar="ENDPOINT=DIR",
        help="serve DIR as the simulated remote endpoint ENDPOINT and "
        "federate it with --repo (repeatable; may also stand alone). "
        "Remote files mount through ranged GETs over the resilient "
        "transport; shape the link with the --endpoint-* knobs",
    )
    query.add_argument(
        "--endpoint-latency-ms", type=float, default=0.0, metavar="MS",
        help="simulated per-request latency for every --remote endpoint",
    )
    query.add_argument(
        "--endpoint-jitter", type=float, default=0.0, metavar="J",
        help="latency jitter fraction in [0, 1] for --remote endpoints",
    )
    query.add_argument(
        "--endpoint-bandwidth-mbps", type=float, default=None, metavar="MB",
        help="simulated bandwidth cap in MB/s (default: unlimited)",
    )
    query.add_argument(
        "--endpoint-loss", type=float, default=0.0, metavar="P",
        help="per-request loss probability in [0, 1) for --remote endpoints",
    )
    query.add_argument(
        "--endpoint-seed", type=int, default=0, metavar="N",
        help="seed of the deterministic network model (same seed = same "
        "latency/loss draws)",
    )
    query.add_argument(
        "--endpoint-timeout-ms", type=float, default=None, metavar="MS",
        help="per-request timeout; a request still waiting on the link when "
        "it passes fails and is retried (default: no timeout)",
    )
    query.add_argument(
        "--endpoint-retries", type=_positive_int, default=3, metavar="N",
        help="max attempts per remote request (default 3)",
    )
    query.add_argument(
        "--endpoint-retry-budget", type=int, default=64, metavar="N",
        help="per-query cap on retries across all remote requests "
        "(default 64)",
    )
    query.add_argument(
        "--explain", action="store_true", help="print the plan instead"
    )
    query.add_argument(
        "--breakpoint", action="store_true",
        help="print what the system knew between the stages (repo mode)",
    )
    query.add_argument(
        "--mount-workers", type=_positive_int, default=1, metavar="N",
        help="stage-2 mount parallelism: fan files of interest out to N "
        "workers (1 = serial, the paper's behavior; repo mode only)",
    )
    query.add_argument(
        "--on-mount-error", choices=("fail", "skip"), default="fail",
        help="degradation policy for unreadable repository files: fail = "
        "abort on the first corrupt/truncated/stale file (default); skip = "
        "quarantine it, answer from the intact rest and report what was "
        "skipped (repo mode only)",
    )
    query.add_argument(
        "--no-selective-mounts", action="store_true",
        help="disable record-granular selective mounting: always read and "
        "decode whole files even when the fused predicate bounds the time "
        "interval (repo mode only)",
    )
    query.add_argument(
        "--deadline-seconds", type=float, default=None, metavar="S",
        help="wall-clock budget for the whole query: mounting, retries and "
        "the kernel loop all stop within milliseconds of the deadline "
        "(repo mode only)",
    )
    query.add_argument(
        "--max-mount-bytes", type=_positive_int, default=None, metavar="B",
        help="cap on bytes mounted off the repository by one query "
        "(repo mode only)",
    )
    query.add_argument(
        "--max-decoded-records", type=_positive_int, default=None,
        metavar="N",
        help="cap on records decoded by one query (repo mode only)",
    )
    query.add_argument(
        "--on-budget", choices=("raise", "partial"), default="raise",
        help="what exhausting a budget does: raise = abort with a typed "
        "error (default); partial = answer from the tuples produced so "
        "far and report the truncation",
    )
    query.add_argument(
        "--cache-policy",
        choices=("discard", "unbounded", "lru"),
        default="discard",
        help="ingestion-cache retention: discard = the paper's default "
        "(nothing survives the query); unbounded = retain everything; lru = "
        "byte-budgeted least-recently-used (repo mode only)",
    )
    query.add_argument(
        "--cache-bytes", type=_positive_int, default=256_000_000,
        metavar="B",
        help="cache capacity for --cache-policy lru (default 256 MB)",
    )
    query.add_argument(
        "--metastore", action="store_true",
        help="persist derived metadata (record byte maps, time hulls, file "
        "signatures) to a sidecar in the repository root and reuse it on "
        "the next run: unchanged files skip the header walk entirely; "
        "changed files fall back to live extraction (repo mode only)",
    )
    query.add_argument(
        "--verify-plans", action="store_true",
        help="check structural plan invariants after every rewrite pass, "
        "the two-stage split, and the stage-2 rewrite; abort with the "
        "offending pass and node on a violation (REPRO_VERIFY_PLANS=1 "
        "makes this the default)",
    )
    query.add_argument("--limit", type=int, default=25,
                       help="rows to display")

    bench = commands.add_parser(
        "bench", help="regenerate Table 1 and Figure 3"
    )
    bench.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="small"
    )
    bench.add_argument("--runs", type=int, default=3)

    serve = commands.add_parser(
        "serve",
        help="run the multi-query service with N simulated clients",
    )
    serve.add_argument(
        "--repo", default=None,
        help="repository to serve (default: a generated benchmark "
        "repository at --scale)",
    )
    serve.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="small",
        help="benchmark repository scale when no --repo is given",
    )
    serve.add_argument(
        "--clients", type=_positive_int, default=8, metavar="N",
        help="simulated closed-loop clients (one tenant each)",
    )
    serve.add_argument(
        "--queries-per-client", type=_positive_int, default=3, metavar="Q",
        help="queries each client issues back-to-back",
    )
    serve.add_argument(
        "--mount-workers", type=_positive_int, default=2, metavar="W",
        help="shared scheduler extraction workers (service-wide)",
    )
    serve.add_argument(
        "--throughput-bias", type=float, default=0.7, metavar="B",
        help="scheduler knob in [0,1]: 1.0 = serve the most-waited-on "
        "files first (throughput), 0.0 = strict arrival order (fairness); "
        "starvation aging applies at every setting",
    )
    serve.add_argument(
        "--batch-window-ms", type=float, default=20.0, metavar="MS",
        help="upper bound on the batching delay before a cold file is "
        "extracted, letting co-arriving queries merge into one extraction; "
        "the wait ends as soon as every query that could still join has, "
        "so a query that is alone does not wait (0 disables batching)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None, metavar="D",
        help="per-tenant admission limit on in-flight queries; beyond it "
        "submissions are shed with a typed error instead of queued",
    )
    serve.add_argument(
        "--prefetch", action="store_true",
        help="predictive prefetch: after each query, extrapolate the "
        "tenant's next time window (sliding/zooming patterns) and warm the "
        "shared cache through low-priority scheduler hints that run only "
        "when no real query is waiting",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = RepositorySpec(
        stations=tuple(s for s in args.stations.split(",") if s),
        channels=tuple(c for c in args.channels.split(",") if c),
        days=args.days,
        start_day=args.start_day,
        sample_rate=args.sample_rate,
        samples_per_record=args.samples_per_record,
        seed=args.seed,
    )
    started = time.perf_counter()
    uris = generate_repository(args.root, spec)
    repo = FileRepository(args.root)
    print(
        f"generated {len(uris)} files ({repo.total_bytes():,} bytes) "
        f"under {args.root} in {time.perf_counter() - started:.2f}s"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    repo = FileRepository(args.repo, suffix=(".xseed", ".tscsv"))
    db = Database()
    report = lazy_ingest_metadata(db, repo)
    print(f"repository : {repo.root}")
    print(f"files      : {report.files}")
    print(f"records    : {report.records}")
    print(f"samples    : {report.samples:,} (described, not loaded)")
    print(f"bytes      : {repo.total_bytes():,}")
    print(f"header scan: {report.load_seconds * 1000:.1f} ms")
    summary = db.execute(
        "SELECT station, channel, COUNT(*) AS files, SUM(nsamples) AS samples "
        "FROM F GROUP BY station, channel ORDER BY station, channel"
    )
    print(summary.pretty(limit=50))
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    repo = FileRepository(args.repo, suffix=(".xseed", ".tscsv"))
    db = Database()
    if args.mode == "eager":
        report = eager_ingest(db, repo)
        print(
            f"eager load: {report.files} files / {report.samples:,} samples "
            f"in {report.load_seconds:.2f}s + {report.index_seconds:.2f}s "
            f"indexes"
        )
    else:
        lazy_report = lazy_ingest_metadata(db, repo)
        print(
            f"metadata load: {lazy_report.files} files / "
            f"{lazy_report.records} records in "
            f"{lazy_report.load_seconds * 1000:.1f} ms"
        )
    written = db.save(args.db)
    print(f"persisted {written:,} bytes to {args.db}")
    return 0


def _parse_remote_spec(spec: str) -> tuple[str, str]:
    endpoint, sep, directory = spec.partition("=")
    if not endpoint or not sep or not directory:
        raise SystemExit(f"--remote expects ENDPOINT=DIR, got {spec!r}")
    return endpoint, directory


def _build_query_repository(args: argparse.Namespace):
    """The query's repository: local, remote, or a federation of both.

    Returns ``(repository, remote_members)`` — the members list is what the
    per-endpoint transport statistics are reported from afterwards.
    """
    members: list[object] = []
    if args.repo:
        members.append(FileRepository(args.repo, suffix=(".xseed", ".tscsv")))
    remotes = []
    if args.remote:
        import tempfile

        from .remote import (
            NetworkProfile,
            RemoteRepository,
            SimulatedObjectStore,
            TransportPolicy,
        )

        profile = NetworkProfile(
            latency_seconds=args.endpoint_latency_ms / 1000.0,
            jitter=args.endpoint_jitter,
            bandwidth_bytes_per_second=(
                None
                if args.endpoint_bandwidth_mbps is None
                else args.endpoint_bandwidth_mbps * 1_000_000.0
            ),
            loss_probability=args.endpoint_loss,
        )
        policy = TransportPolicy(
            request_timeout_seconds=(
                None
                if args.endpoint_timeout_ms is None
                else args.endpoint_timeout_ms / 1000.0
            ),
            max_attempts=args.endpoint_retries,
            retry_budget_attempts=args.endpoint_retry_budget,
        )
        staging_root = Path(tempfile.mkdtemp(prefix="repro-remote-staging-"))
        for spec in args.remote:
            endpoint, directory = _parse_remote_spec(spec)
            store = SimulatedObjectStore(
                endpoint, directory, profile, seed=args.endpoint_seed
            )
            remote = RemoteRepository(
                store, staging_root / endpoint, policy=policy
            )
            members.append(remote)
            remotes.append(remote)
    if not members:
        raise SystemExit("query needs --db, --repo, or --remote")
    if len(members) == 1:
        return members[0], remotes
    from .remote import FederatedRepository

    return FederatedRepository(members), remotes


def _print_remote_stats(remotes) -> None:
    for remote in remotes:
        stats = remote.stats
        transport = remote.transport.stats
        print(
            f"(endpoint {remote.endpoint}: {stats.remote_bytes} remote "
            f"byte(s) in {stats.ranged_gets} ranged / "
            f"{stats.whole_fetches} whole GET(s), "
            f"{stats.staged_reuses} staging reuse(s); "
            f"{transport.retries} retry(ies), "
            f"{transport.breaker_refusals} breaker refusal(s))",
            file=sys.stderr,
        )


def _cmd_query(args: argparse.Namespace) -> int:
    if args.db and args.remote:
        raise SystemExit("--remote applies to repository mode, not --db")
    if args.db:
        db = Database.open(args.db)
        if args.verify_plans:
            db.verify_plans = True
        if args.explain:
            print(db.explain(args.sql))
            return 0
        result = db.execute(args.sql)
        print(result.pretty(limit=args.limit))
        print(f"({result.num_rows} rows in {result.total_seconds:.4f}s)")
        return 0

    repo, remotes = _build_query_repository(args)
    db = Database(verify_plans=True if args.verify_plans else None)
    metastore = None
    if args.metastore:
        if getattr(repo, "root", None) is None:
            print(
                "warning: --metastore needs a local repository root; "
                "ignored for remote-only sources",
                file=sys.stderr,
            )
        else:
            from .core.metastore import MetadataStore

            metastore = MetadataStore.for_repository(repo.root)
            metastore.load()
    report = lazy_ingest_metadata(db, repo, metastore=metastore)
    if metastore is not None and report.files_reused:
        print(
            f"(metastore: {report.files_reused}/{report.files} files "
            f"reused, no header walk)",
            file=sys.stderr,
        )
    cache = None
    if args.cache_policy != "discard":
        from .core.cache import CacheGranularity, CachePolicy, IngestionCache

        policy = CachePolicy(args.cache_policy)
        capacity = args.cache_bytes if policy is CachePolicy.LRU else None
        cache = IngestionCache(
            policy, CacheGranularity.TUPLE, capacity_bytes=capacity
        )
    budget = None
    if (
        args.deadline_seconds is not None
        or args.max_mount_bytes is not None
        or args.max_decoded_records is not None
    ):
        budget = QueryBudget(
            deadline_seconds=args.deadline_seconds,
            max_mount_bytes=args.max_mount_bytes,
            max_decoded_records=args.max_decoded_records,
            on_budget=args.on_budget,
        )
    executor = TwoStageExecutor(
        db,
        RepositoryBinding(repo),
        cache=cache,
        mount_workers=args.mount_workers,
        on_mount_error=args.on_mount_error,
        selective_mounts=not args.no_selective_mounts,
        budget=budget,
    )
    if args.explain:
        print(executor.explain(args.sql))
        return 0
    outcome = executor.execute(args.sql)
    if args.breakpoint:
        print("-- breakpoint --")
        print(outcome.breakpoint.summary())
        print("-- result --")
    print(outcome.result.pretty(limit=args.limit))
    timings = outcome.timings
    print(
        f"({outcome.result.num_rows} rows; stage 1 "
        f"{timings.stage1_seconds * 1000:.1f} ms, stage 2 "
        f"{timings.stage2_seconds * 1000:.1f} ms, "
        f"{outcome.result.stats.files_mounted} file(s) mounted)"
    )
    if timings.mount_workers > 1 and timings.mount_files:
        print(
            f"(mounts: {timings.mount_files} file(s) on "
            f"{timings.mount_workers} workers; serialized "
            f"{timings.mount_serial_seconds * 1000:.1f} ms, critical path "
            f"{timings.mount_wall_seconds * 1000:.1f} ms, "
            f"{timings.mount_speedup:.1f}x)"
        )
    if timings.mount_failures:
        print(f"warning: {timings.mount_failures.describe()}", file=sys.stderr)
        for endpoint in timings.mount_failures.endpoints():
            print(
                f"warning: endpoint {endpoint} degraded — its files were "
                "skipped, surviving sources answered",
                file=sys.stderr,
            )
    if outcome.truncation is not None:
        print(f"warning: {outcome.truncation.describe()}", file=sys.stderr)
    _print_remote_stats(remotes)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness import (
        build_environment,
        default_spec,
        run_figure3,
        run_table1,
        render_figure3,
        render_table1,
        small_spec,
        tiny_spec,
    )
    from .harness.reporting import render_figure3_chart

    spec = {"tiny": tiny_spec, "small": small_spec, "default": default_spec}[
        args.scale
    ]()
    env = build_environment(spec)
    print(render_table1(run_table1(env)))
    print()
    entries = run_figure3(env, runs=args.runs)
    print(render_figure3(entries, len(env.repository)))
    print()
    print(render_figure3_chart(entries, len(env.repository)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .harness.setup import (
        default_spec,
        materialize_repository,
        small_spec,
        tiny_spec,
    )
    from .serve import QueryService, SchedulerPolicy, TenantPolicy, run_comparison

    if args.repo is not None:
        repo = FileRepository(args.repo, suffix=(".xseed", ".tscsv"))
        db = Database()
        lazy_ingest_metadata(db, repo)
        spec = _spec_from_metadata(db)
    else:
        spec = {
            "tiny": tiny_spec, "small": small_spec, "default": default_spec
        }[args.scale]()
        repo = materialize_repository(spec)
        db = None

    policy = SchedulerPolicy(
        throughput_bias=args.throughput_bias,
        batch_window_seconds=args.batch_window_ms / 1000.0,
    )
    service = QueryService(
        repo,
        db=db,
        scheduler_policy=policy,
        mount_workers=args.mount_workers,
        default_policy=TenantPolicy(max_queue_depth=args.max_queue_depth),
        prefetch=args.prefetch,
    )
    try:
        report = run_comparison(
            repo,
            spec,
            clients=args.clients,
            queries_per_client=args.queries_per_client,
            service=service,
        )
    finally:
        service.close()
    print(report.describe())
    if not report.identical:
        print("error: service answers diverged from standalone",
              file=sys.stderr)
        return 1
    return 0


def _spec_from_metadata(db: Database) -> RepositorySpec:
    """A workload-shaped spec for an arbitrary repository, read from ``F``.

    The simulated-clients workload only needs stations, channels, and the
    day range; everything else keeps its defaults. Works best on
    day-aligned repositories (the generated benchmark kind).
    """
    from .db.types import format_timestamp

    summary = db.execute(
        "SELECT station, channel, MIN(start_time) AS lo, MAX(end_time) AS hi "
        "FROM F GROUP BY station, channel ORDER BY station, channel"
    )
    rows = summary.rows()
    if not rows:
        raise DatabaseError("repository has no files to build a workload from")
    stations = tuple(dict.fromkeys(r[0] for r in rows))
    channels = tuple(dict.fromkeys(r[1] for r in rows))
    lo = min(int(r[2]) for r in rows)
    hi = max(int(r[3]) for r in rows)
    day_us = 86_400 * 1_000_000
    days = max(1, (hi - lo) // day_us)
    return RepositorySpec(
        stations=stations,
        channels=channels,
        days=int(days),
        start_day=format_timestamp(lo)[:10],
    )


_COMMANDS = {
    "generate": _cmd_generate,
    "inspect": _cmd_inspect,
    "load": _cmd_load,
    "query": _cmd_query,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DatabaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
