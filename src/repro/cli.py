"""Command-line interface: ``python -m repro <command>``.

Commands cover the whole zero-to-exploration path:

* ``generate`` — synthesize an xSEED repository,
* ``inspect``  — repository statistics from header-only scans,
* ``load``     — ingest (eagerly or metadata-only) and persist a database,
* ``query``    — run SQL: against a persisted database, or two-stage with
  automated lazy ingestion straight against a repository,
* ``bench``    — regenerate the paper's Table 1 / Figure 3 at a chosen scale.

The multi-query service is driven by ``benchmarks/bench_serve.py``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import sys
import time
from contextlib import ExitStack
from typing import Optional, Sequence

from .core import IngestionCache, QueryBudget, TwoStageExecutor
from .db import Database, DatabaseError
from .db.plan.logical import Scan
from .ingest import RepositoryBinding, eager_ingest, lazy_ingest_metadata
from .ingest.schema import ACTUAL_TABLE, FILE_TABLE
from .mseed import FileRepository, RepositorySpec, generate_repository
from .obs import MountSpan, worker_busy_seconds


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return parse


_positive_int = _at_least(1)


def _positive_number(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a positive, finite number")
    return value


def _iso_day(text: str) -> str:
    try:
        dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "must be an ISO date (YYYY-MM-DD)"
        ) from None
    return text


def _names(text: str) -> tuple[str, ...]:
    names = tuple(name for name in text.split(",") if name)
    if not names:
        raise argparse.ArgumentTypeError("must name at least one")
    return names


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
    gen.add_argument("--stations", type=_names, default="ISK,ANK,IZM")
    gen.add_argument("--channels", type=_names, default="BHE,BHN,BHZ")
    gen.add_argument("--days", type=_positive_int, default=2)
    gen.add_argument("--start-day", type=_iso_day, default="2010-01-10")
    gen.add_argument("--sample-rate", type=_positive_number, default=0.1)
    gen.add_argument("--samples-per-record", type=_positive_int, default=1800)
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
        "transport on the default NetworkProfile and TransportPolicy",
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
        help="stage-2 mount parallelism: N > 1 runs the query through a "
        "query service whose scheduler fans files of interest out to N "
        "workers (1 = inline, the paper's behavior; repo mode only)",
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
        "--deadline-seconds", type=_positive_number, default=None, metavar="S",
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
    query.add_argument("--limit", type=_at_least(0), default=25,
                       help="rows to display")

    bench = commands.add_parser(
        "bench", help="regenerate Table 1 and Figure 3"
    )
    bench.add_argument(
        "--scale", choices=("tiny", "small", "default"), default="small"
    )
    bench.add_argument("--runs", type=_positive_int, default=3)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = RepositorySpec(
        stations=args.stations,
        channels=args.channels,
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


def _build_query_repository(args: argparse.Namespace, stack: ExitStack):
    """The query's repository: local, remote, or a federation of both.

    Returns ``(repository, remote_members)`` — the members list is what the
    per-endpoint transport statistics are reported from afterwards.
    """
    members: list[object] = []
    if args.repo:
        members.append(FileRepository(args.repo, suffix=(".xseed", ".tscsv")))
    remotes = []
    if args.remote:
        from .remote import RemoteRepository, SimulatedObjectStore

        specs = [_parse_remote_spec(spec) for spec in args.remote]
        for endpoint, directory in specs:
            remote = RemoteRepository(SimulatedObjectStore(endpoint, directory))
            stack.callback(remote.close)
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
            f"{stats.staged_reuses} reuse(s) of held bytes; "
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
        _refuse_unloaded_samples(db, args.sql)
        result = db.execute(args.sql)
        print(result.pretty(limit=args.limit))
        print(f"({result.num_rows} rows in {result.total_seconds:.4f}s)")
        return 0
    with ExitStack() as stack:
        return _query_repository(args, *_build_query_repository(args, stack))


def _refuse_unloaded_samples(db: Database, sql: str) -> None:
    """A metadata-only database (``load --mode lazy``) lists files in ``F``
    but holds no ``D`` rows: a query reading ``D`` there would answer as if
    the files held no samples. Refuse it; mounting them needs the
    repository."""
    rows = {table.name: table.num_rows for table in db.catalog.tables()}
    if rows.get(ACTUAL_TABLE) != 0 or not rows.get(FILE_TABLE):
        return
    if any(
        isinstance(node, Scan) and node.table_name.upper() == ACTUAL_TABLE
        for node in db.bind_sql(sql).walk()
    ):
        raise DatabaseError(
            f"{ACTUAL_TABLE} is not loaded in this metadata-only database "
            f"(load --mode lazy): query the repository with --repo to mount "
            f"its samples"
        )


def _query_repository(args: argparse.Namespace, repo, remotes) -> int:
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
        on_mount_error=args.on_mount_error,
        selective_mounts=not args.no_selective_mounts,
        budget=budget,
    )
    if args.explain:
        print(executor.explain(args.sql))
        return 0
    if args.mount_workers == 1:
        outcome = executor.execute(args.sql)
    else:
        # Parallel extraction is a query service's: one caller, no batch
        # window to wait out, a cache as fresh as the executor's.
        from .serve import QueryService, TenantPolicy

        with QueryService(
            repo, db=db, cache=IngestionCache(),
            default_policy=TenantPolicy(on_mount_error=args.on_mount_error),
            batch_window_seconds=0.0, mount_workers=args.mount_workers,
            selective_mounts=not args.no_selective_mounts,
        ) as service:
            outcome = service.execute(args.sql, budget=budget)
    trace = outcome.trace
    if args.breakpoint:
        print("-- breakpoint --")
        print(outcome.breakpoint.summary())
        print(trace.render())
        print("-- result --")
    print(outcome.result.pretty(limit=args.limit))
    print(
        f"({outcome.result.num_rows} rows; stage 1 "
        f"{trace.seconds('stage1') * 1000:.1f} ms, stage 2 "
        f"{trace.seconds('stage2') * 1000:.1f} ms, "
        f"{trace.counters['files_mounted']} file(s) mounted)"
    )
    busy = worker_busy_seconds(trace)
    if args.mount_workers > 1 and busy:
        serial, critical = sum(busy.values()), max(busy.values())
        files = sum(isinstance(span, MountSpan) for span in trace.spans)
        print(
            f"(mounts: {files} file(s) on {args.mount_workers} workers; "
            f"serialized {serial * 1000:.1f} ms, critical path "
            f"{critical * 1000:.1f} ms, "
            f"{serial / critical if critical > 0 else 1.0:.1f}x)"
        )
    if outcome.mount_failures:
        print(f"warning: {outcome.mount_failures.describe()}", file=sys.stderr)
        for endpoint in outcome.mount_failures.endpoints():
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


_COMMANDS = {
    "generate": _cmd_generate,
    "inspect": _cmd_inspect,
    "load": _cmd_load,
    "query": _cmd_query,
    "bench": _cmd_bench,
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
