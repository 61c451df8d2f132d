"""The fixture and the four workloads of the end-to-end benchmark.

Everything here talks to ``repro`` through its public API only; nothing is
imported from the legacy ``benchmarks/*.py`` scripts. A workload is three
things: a deterministic op list made from the seed (``make_ops``), an engine
(``setup`` / ``teardown``) and what one answer is (``answer``). The runner
in ``run.py`` owns clocks, blocks, client threads and checking.

All wall time measured over these calls is real: the engine's ``DiskModel``
only *accounts* simulated seconds, it never sleeps, and the runner never adds
those seconds to anything. The one place simulated time becomes real time is
``serve_remote``, whose ``SimulatedObjectStore`` actually waits out its link
latency; ``remote.simstore.wait_ms`` reports that floor.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

# Module functions are called through their package (ingest.lazy_ingest_metadata)
# so that a traced pass, which swaps them in every repro.* namespace, is seen.
from repro import ingest
from repro.core import TwoStageExecutor
from repro.core.cache import CacheGranularity, CachePolicy, IngestionCache
from repro.core.metastore import MetadataStore
from repro.db import Database
from repro.db.types import format_timestamp, parse_timestamp
from repro.explore.session import ExplorationSession
from repro.explore.workload import (
    StepKind,
    make_query1,
    make_query2,
    random_exploration,
    sweep_queries,
)
from repro.ingest import RepositoryBinding
from repro.mseed import FileRepository, RepositorySpec, generate_repository
from repro.remote import (
    NetworkProfile,
    RemoteRepository,
    SimulatedObjectStore,
)
from repro.serve import QueryService

_DAY_US = 86_400 * 1_000_000

# One fixture for every workload, independent of --seed: 6 stations x 3
# channels x 20 days = 360 day-long files, 24 hour-long records each. Many
# small files on purpose: per-file and per-listing costs (header walk, glob,
# stat) only show on a many-file repository.
FIXTURE_SPEC = RepositorySpec(
    stations=("ISK", "ANK", "IZM", "EDC", "KDZ", "BAL"),
    channels=("BHE", "BHN", "BHZ"),
    days=20,
    sample_rate=0.2,
    samples_per_record=720,
)
ENDPOINT = "seis-eu"
WALK_SHAPE_SEED = 7  # the exploration walks' shape; see _exploration
SIDECAR_NAME = "remote-metastore.json"


def fixture_key(src_root: Path) -> str:
    """Cache key of the built fixture: the spec plus the format's source."""
    digest = hashlib.sha1(repr(FIXTURE_SPEC).encode())
    for path in sorted((src_root / "repro" / "mseed").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def synthesize_fixture(target: Path, sidecar: bool = True) -> float:
    """Write the repository under ``target/objects``; returns the seconds
    ``generate_repository`` took. With ``sidecar``, also harvest the remote
    metadata sidecar next to it: ``serve_remote`` sessions start
    metastore-warm with cold staging, so first touches are ranged GETs."""
    objects = target / "objects"
    objects.mkdir(parents=True)
    started = time.perf_counter()
    generate_repository(objects, FIXTURE_SPEC)
    seconds = time.perf_counter() - started
    if sidecar:
        # The harvest walks the endpoint over a zero-latency link: it is
        # preflight, not a measurement.
        store = SimulatedObjectStore(ENDPOINT, objects)
        staging = target / "harvest-staging"
        repo = RemoteRepository(store, staging)
        try:
            ingest.lazy_ingest_metadata(
                Database(), repo, metastore=MetadataStore(target / SIDECAR_NAME)
            )
        finally:
            repo.close()
            shutil.rmtree(staging, ignore_errors=True)
    return seconds


@dataclass
class Fixture:
    """Where the built fixture lives and where a run may write."""

    root: Path  # holds objects/ and the remote sidecar; read-only to runs
    workdir: Path  # per-run scratch inside the checkout

    @property
    def objects(self) -> Path:
        return self.root / "objects"

    @property
    def sidecar(self) -> Path:
        return self.root / SIDECAR_NAME


def _exploration(seed: int, steps: int) -> list[tuple[StepKind, str]]:
    """``steps`` (kind, SQL) pairs of an exploration walk.

    The walk's *shape* - the sequence of quick look / zoom in / zoom out /
    move on and so every window's width - is ``random_exploration``'s under
    one fixed seed, and so is the time of day each episode looks at; ``seed``
    draws each episode's station and day and, for Query 1, the channel. Every seed then costs the same mix
    of ops, so a metric moves with the program and not with how many rare
    twelve-hour zoom-outs a seed happened to draw (bytes per answer spread
    ~20 % over ten seeds when the seed drew the shape too).
    """
    spec = FIXTURE_SPEC
    shape = random_exploration(
        list(spec.stations),
        list(spec.channels),
        spec.start_day,
        spec.days,
        steps=steps,
        seed=WALK_SHAPE_SEED,
    )
    rng = np.random.default_rng(seed)
    day0 = parse_timestamp(spec.start_day)
    # Episodes visit the (station, day) grid in a seed-drawn order without
    # repeats (until it is used up), so how often a walk lands on files it
    # already cached does not depend on the seed either.
    grid = [(s, d) for s in spec.stations for d in range(spec.days)]
    order = rng.permutation(len(grid))
    episode = -1
    walk = []
    for step in shape:
        if episode < 0 or step.kind is StepKind.MOVE_ON:
            episode += 1
            station, day_index = grid[order[episode % len(grid)]]
            # The hour looked at is part of the shape: a window that
            # crosses midnight is clipped to its first day's records.
            time_of_day = (sum(step.window_us) // 2 - day0) % _DAY_US
            center = day0 + day_index * _DAY_US + time_of_day
        half = (step.window_us[1] - step.window_us[0]) // 2
        lo, hi = center - half, center + half
        day = format_timestamp(day0 + (lo - day0) // _DAY_US * _DAY_US)[:10]
        window = (format_timestamp(lo), format_timestamp(hi))
        if step.kind in (StepKind.QUICK_LOOK, StepKind.MOVE_ON):
            channel = spec.channels[int(rng.integers(len(spec.channels)))]
            sql = make_query1(station, channel, day, *window)
        else:
            sql = make_query2(station, day, *window)
        walk.append((step.kind, sql))
    return walk


@dataclass
class Counters:
    """Program-side counters a traced pass reads before and after its ops."""

    cache_evictions: int = 0
    scheduler_grants: int = 0
    scheduler_shared_grants: int = 0
    remote_bytes: int = 0
    remote_ranged_gets: int = 0
    transport_requests: int = 0
    transport_retries: int = 0


class Workload:
    """Base: a closed loop of ``clients`` callers, one op = one answer."""

    name = ""
    clients = 1
    # Timed ops per client for one second of --seconds, sized on the 2-core
    # CI box so the timed passes together last about --seconds. The counts
    # are fixed by (--seconds, these constants), never by how fast the
    # machine is: a speed-up shortens the run, it does not change the ops.
    ops_per_second = 1.0
    # Identical timed passes per run, each on a freshly set-up engine. Ops
    # that all cost the same need few distinct ops and gain from more
    # repeats; a mixed trace needs many ops to look the same for every seed.
    passes = 3
    warmup_share = 0.1  # warm-up pass inside set-up, as a share of a pass

    def op_counts(self, seconds: float, smoke: bool) -> tuple[int, int]:
        """(warm-up ops, timed ops) per client and pass; timed is a
        multiple of the five throughput blocks."""
        timed = self.ops_per_second * seconds / self.passes
        if smoke:
            timed /= 20
        timed = max(5, int(round(timed / 5)) * 5)
        return max(1, int(round(timed * self.warmup_share))), timed

    def make_ops(self, seed: int, count: int) -> list[str]:
        raise NotImplementedError

    def setup(self, fixture: Fixture, seed: int) -> Any:
        raise NotImplementedError

    def answer(self, state: Any, sql: str, client: int = 0) -> Any:
        """Run one op and return its ``QueryResult`` (rows in hand)."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        pass

    def counters(self, state: Any) -> Counters:
        return Counters()

    def reused_share(self, state: Any) -> float:
        """Share of files whose metadata came from the sidecar at set-up."""
        return 0.0


class FirstAnswer(Workload):
    """Cold start to first answer: every op is a new session."""

    name = "first_answer"
    ops_per_second = 5.4
    passes = 8
    warmup_share = 0.3  # three sessions: one alone is under the set-up floor

    def make_ops(self, seed: int, count: int) -> list[str]:
        narrow = [
            sql
            for kind, sql in _exploration(seed * 1000 + 1, count * 4 + 16)
            if kind in (StepKind.QUICK_LOOK, StepKind.MOVE_ON)
        ]
        if len(narrow) < count:
            raise RuntimeError("exploration trace too short for first_answer")
        return narrow[:count]

    def setup(self, fixture: Fixture, seed: int) -> Any:
        return FileRepository(fixture.objects)

    def answer(self, state: Any, sql: str, client: int = 0) -> Any:
        db = Database()
        ingest.lazy_ingest_metadata(db, state)
        executor = TwoStageExecutor(db, RepositoryBinding(state))
        return executor.execute(sql).result


@dataclass
class _ExploreState:
    session: ExplorationSession
    cache: IngestionCache


class ExploreNarrow(Workload):
    """The interactive loop over one long-lived executor and a churned cache."""

    name = "explore_narrow"
    ops_per_second = 80.0
    cache_bytes = 1 << 20  # smaller than the working set: evictions occur

    def make_ops(self, seed: int, count: int) -> list[str]:
        return [sql for _, sql in _exploration(seed * 1000 + 2, count)]

    def setup(self, fixture: Fixture, seed: int) -> Any:
        repo = FileRepository(fixture.objects)
        db = Database()
        ingest.lazy_ingest_metadata(db, repo)
        cache = IngestionCache(
            policy=CachePolicy.LRU,
            granularity=CacheGranularity.TUPLE,
            capacity_bytes=self.cache_bytes,
        )
        executor = TwoStageExecutor(
            db, RepositoryBinding(repo), cache=cache, selective_mounts=True
        )
        return _ExploreState(ExplorationSession(executor), cache)

    def answer(self, state: Any, sql: str, client: int = 0) -> Any:
        return state.session.run(sql)

    def teardown(self, state: Any) -> None:
        state.session.close()

    def counters(self, state: Any) -> Counters:
        stats = state.cache.stats
        return Counters(cache_evictions=stats.evictions)


class ScanWide(Workload):
    """Whole-file extraction plus stage-2 operators; nothing is retained."""

    name = "scan_wide"
    ops_per_second = 4.0
    passes = 6
    stations_per_op = 3
    days_per_op = 2

    def make_ops(self, seed: int, count: int) -> list[str]:
        rng = np.random.default_rng(seed * 1000 + 3)
        spec = FIXTURE_SPEC
        day0 = parse_timestamp(spec.start_day)
        ops = []
        for _ in range(count):
            picked = rng.choice(
                len(spec.stations), size=self.stations_per_op, replace=False
            )
            stations = sorted(spec.stations[int(i)] for i in picked)
            first = int(rng.integers(spec.days - self.days_per_op + 1))
            lo = day0 + first * _DAY_US
            hi = lo + self.days_per_op * _DAY_US
            [(_, sql)] = sweep_queries(
                stations,
                list(spec.channels),
                format_timestamp(lo)[:10],
                format_timestamp(lo),
                format_timestamp(hi),
                fractions=[1.0],
                days=self.days_per_op,
            )
            ops.append(sql)
        return ops

    def setup(self, fixture: Fixture, seed: int) -> Any:
        repo = FileRepository(fixture.objects)
        db = Database()
        ingest.lazy_ingest_metadata(db, repo)
        # Paper defaults: DISCARD cache, serial mounts - every op re-extracts.
        return TwoStageExecutor(db, RepositoryBinding(repo), mount_workers=1)

    def answer(self, state: Any, sql: str, client: int = 0) -> Any:
        return state.execute(sql).result


@dataclass
class _ServeState:
    service: QueryService
    repo: RemoteRepository
    workdir: Path
    files: int
    files_reused: int
    tenants: list[str] = field(default_factory=list)


class ServeRemote(Workload):
    """Two tenants in lock-step through one service over a simulated link."""

    name = "serve_remote"
    clients = 2
    ops_per_second = 18.0
    latency_seconds = 0.002
    jitter = 0.2

    def make_ops(self, seed: int, count: int) -> list[str]:
        return [sql for _, sql in _exploration(seed * 1000 + 4, count)]

    def setup(self, fixture: Fixture, seed: int) -> Any:
        workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=fixture.workdir))
        # lazy ingest re-saves the sidecar: give the session its own copy.
        sidecar = workdir / SIDECAR_NAME
        shutil.copyfile(fixture.sidecar, sidecar)
        store = SimulatedObjectStore(
            ENDPOINT,
            fixture.objects,
            profile=NetworkProfile(
                latency_seconds=self.latency_seconds, jitter=self.jitter
            ),
            seed=seed,  # same seed, same weather on the link
        )
        repo = RemoteRepository(store, workdir / "staging")
        metastore = MetadataStore(sidecar)
        metastore.load()
        db = Database()
        report = ingest.lazy_ingest_metadata(db, repo, metastore=metastore)
        service = QueryService(repo, db=db, mount_workers=2).start()
        return _ServeState(
            service=service,
            repo=repo,
            workdir=workdir,
            files=report.files,
            files_reused=report.files_reused,
            tenants=[f"tenant-{i}" for i in range(self.clients)],
        )

    def answer(self, state: Any, sql: str, client: int = 0) -> Any:
        return state.service.execute(sql, tenant=state.tenants[client]).result

    def teardown(self, state: Any) -> None:
        state.service.close()
        state.repo.close()
        shutil.rmtree(state.workdir, ignore_errors=True)

    def counters(self, state: Any) -> Counters:
        service = state.service.stats()
        remote = state.repo.stats
        transport = state.repo.transport.stats
        return Counters(
            cache_evictions=service.cache.evictions,
            scheduler_grants=service.scheduler.grants,
            scheduler_shared_grants=service.scheduler.shared_grants,
            remote_bytes=remote.remote_bytes,
            remote_ranged_gets=remote.ranged_gets,
            transport_requests=transport.requests,
            transport_retries=transport.retries,
        )

    def reused_share(self, state: Any) -> float:
        return state.files_reused / state.files if state.files else 0.0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (FirstAnswer(), ExploreNarrow(), ScanWide(), ServeRemote())
}


def reference_executor(fixture: Fixture) -> TwoStageExecutor:
    """The checker for seeds without a committed expectation: whole-file
    mounts, nothing cached, on the local repository."""
    repo = FileRepository(fixture.objects)
    db = Database()
    ingest.lazy_ingest_metadata(db, repo)
    return TwoStageExecutor(
        db, RepositoryBinding(repo), selective_mounts=False
    )
