"""Outside-in layer spans: benchmark-side wrappers around public callables.

Nothing under ``src/`` knows about this file. A traced pass *replaces*
attributes - class methods on their class, module functions in every
``repro.*`` namespace that imported them - with wrappers that record one span
per call: name, start, end, the span that caused it (a thread-local stack),
the op it belongs to and the phase (``setup`` or ``ops``). Spans stay in
memory until the workload ends.

A layer's *self time* is its span minus the part its child spans cover. A
target that no longer resolves is skipped with a warning and its metrics read
``null``: later PRs may rename internals, and a PR that claims a gain may not
edit this directory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.mseed import set_volume_io_hook


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:Class.method`` or ``module:function``."""

    span: str  # span name, ``<layer>.<what>``
    module: str
    path: str
    # Optional: turn the call's result into a count carried on the span.
    count: Optional[Callable[[Any], int]] = None
    # Optional: pick the span name from the call's arguments.
    classify: Optional[Callable[[tuple, dict], str]] = None


def _stage_of(args: tuple, kwargs: dict) -> str:
    """``Database.execute_plan`` runs Qf (stage 1) and the rewritten Qs
    (stage 2); only the latter's plan holds mount-side leaves."""
    from repro.db.plan.logical import CacheScan, Mount, ResultScan

    plan = args[1] if len(args) > 1 else kwargs["plan"]
    for node in plan.walk():
        if isinstance(node, (Mount, CacheScan, ResultScan)):
            return "db.stage2"
    return "db.stage1"


def _mounted_samples(mounted: Any) -> int:
    return len(mounted.sample_value)


def _outcome_samples(outcome: Any) -> int:
    return len(outcome.mounted.sample_value)


TARGETS: tuple[Target, ...] = (
    Target("db.bind", "repro.db.database", "Database.bind_sql"),
    Target("db.optimize", "repro.db.database", "Database.optimize"),
    Target(
        "db.execute_plan",
        "repro.db.database",
        "Database.execute_plan",
        classify=_stage_of,
    ),
    Target("core.prepare", "repro.core.executor", "TwoStageExecutor.prepare"),
    Target("core.execute", "repro.core.executor", "TwoStageExecutor.execute"),
    Target("core.mount_file", "repro.core.mounting", "MountService.mount_file"),
    Target("core.cache_scan", "repro.core.mounting", "MountService.cache_scan"),
    Target("core.cache.store", "repro.core.cache", "IngestionCache.store"),
    Target("core.cache.lookup", "repro.core.cache", "IngestionCache.lookup"),
    Target("core.metastore.load", "repro.core.metastore", "MetadataStore.load"),
    Target("ingest.lazy_metadata", "repro.ingest.lazy", "lazy_ingest_metadata"),
    Target(
        "ingest.xseed.extract_metadata",
        "repro.ingest.xseed_format",
        "XSeedExtractor.extract_metadata",
    ),
    Target(
        "ingest.xseed.mount",
        "repro.ingest.xseed_format",
        "XSeedExtractor.mount",
        count=_mounted_samples,
    ),
    Target(
        "ingest.xseed.mount_selective",
        "repro.ingest.xseed_format",
        "XSeedExtractor.mount_selective",
        count=_outcome_samples,
    ),
    Target("mseed.repository.uris", "repro.mseed.repository", "FileRepository.uris"),
    Target("mseed.repository.len", "repro.mseed.repository", "FileRepository.__len__"),
    Target("mseed.scan_headers", "repro.mseed.volume", "scan_headers"),
    Target("mseed.read_file_metadata", "repro.mseed.volume", "read_file_metadata"),
    Target("mseed.read_selected", "repro.mseed.volume", "read_selected_records"),
    Target("mseed.steim_decode", "repro.mseed.steim", "steim_decode"),
    Target("serve.execute", "repro.serve.service", "QueryService.execute"),
    Target("serve.scheduler.take", "repro.serve.scheduler", "SharedPoolClient.take"),
    # The callable the scheduler is constructed with: the service's shared
    # extraction path (cache-before-disk, then the mount service).
    Target(
        "serve.scheduler.extract",
        "repro.serve.service",
        "QueryService._shared_extract",
    ),
    Target("remote.fetch_spans", "repro.remote.repository", "RemoteRepository.fetch_spans"),
    Target("remote.transport.get", "repro.remote.transport", "ResilientTransport.get"),
    Target("remote.transport.head", "repro.remote.transport", "ResilientTransport.head"),
    Target("remote.transport.list_keys", "repro.remote.transport", "ResilientTransport.list_keys"),
    Target("remote.simstore.get", "repro.remote.simstore", "SimulatedObjectStore.get"),
    Target("remote.simstore.head", "repro.remote.simstore", "SimulatedObjectStore.head"),
    Target("remote.simstore.list_keys", "repro.remote.simstore", "SimulatedObjectStore.list_keys"),
)


def span_names(target: Target) -> tuple[str, ...]:
    if target.classify is _stage_of:
        return ("db.stage1", "db.stage2")
    return (target.span,)


def resolve(target: Target) -> Optional[tuple[Any, str, Any]]:
    """(owner, attribute, original) of a target, or None when it is gone."""
    try:
        owner: Any = importlib.import_module(target.module)
        *parents, attribute = target.path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        # Look in the owner's own namespace: an inherited attribute would be
        # wrapped on the wrong class.
        original = vars(owner)[attribute]
    except (ImportError, AttributeError, KeyError):
        return None
    return owner, attribute, original


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    phase: str
    thread: str
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.phase = "setup"
        self._ids = itertools.count(1)  # next() is atomic in CPython
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []
        self.unresolved: list[Target] = []

    # -- per-thread context ---------------------------------------------------

    def set_op(self, op: Optional[int]) -> None:
        """Tag spans opened on this thread with ``op`` (None between ops)."""
        self._local.op = op

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -------------------------------------------------------------

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        spans = self.spans
        ids = self._ids
        local = self._local
        get_stack = self._stack
        name = target.span
        classify = target.classify
        count_of = target.count
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_name = classify(args, kwargs) if classify else name
            stack = get_stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            count = 0
            start = clock()
            try:
                result = original(*args, **kwargs)
                if count_of is not None:
                    count = count_of(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(
                        span_id,
                        span_name,
                        start,
                        end,
                        parent,
                        getattr(local, "op", None),
                        self.phase,
                        threading.current_thread().name,
                        count,
                    )
                )

        return traced

    def install(self) -> None:
        """Swap every resolvable target for its wrapper."""
        for target in TARGETS:
            resolved = resolve(target)
            if resolved is None:
                self.unresolved.append(target)
                continue
            owner, attribute, original = resolved
            wrapper = self._wrapper(target, original)
            if isinstance(owner, type):
                self._swap(owner, attribute, original, wrapper)
                continue
            # A module function: callers hold their own reference from
            # ``from x import f``, so swap it wherever repro imported it.
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "repro" or module_name.startswith("repro.")
                ):
                    continue
                if vars(module).get(attribute) is original:
                    self._swap(module, attribute, original, wrapper)

    def _swap(self, owner: Any, attribute: str, original: Any, new: Any) -> None:
        setattr(owner, attribute, new)
        self._restore.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- export ---------------------------------------------------------------

    def as_json(self) -> list[dict[str, Any]]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "phase": s.phase,
                "thread": s.thread,
                "count": s.count,
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]


class SpanIndex:
    """Aggregations over one traced pass's spans."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.child_seconds: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                self.child_seconds[s.parent] = (
                    self.child_seconds.get(s.parent, 0.0) + s.seconds
                )

    def _outermost(self, names: set[str], phase: Optional[str]) -> list[Span]:
        """Spans named in ``names`` with no ancestor also in ``names`` -
        nested same-layer calls (``__len__`` -> ``uris``) count once."""
        picked = []
        for s in self.spans:
            if s.name not in names or (phase and s.phase != phase):
                continue
            parent = s.parent
            while parent is not None:
                ancestor = self.by_id.get(parent)
                if ancestor is None:
                    parent = None
                elif ancestor.name in names:
                    break
                else:
                    parent = ancestor.parent
            if parent is None:
                picked.append(s)
        return picked

    def busy(self, *names: str, phase: Optional[str] = "ops") -> float:
        return sum(s.seconds for s in self._outermost(set(names), phase))

    def calls(self, *names: str, phase: Optional[str] = "ops") -> int:
        return len(self._outermost(set(names), phase))

    def self_seconds(self, name: str, phase: Optional[str] = "ops") -> float:
        return sum(
            s.seconds - self.child_seconds.get(s.id, 0.0)
            for s in self.spans
            if s.name == name and (not phase or s.phase == phase)
        )

    def nested_calls(self, name: str, under: str, phase: str = "ops") -> int:
        """Calls of ``name`` made directly from a span named ``under``."""
        return sum(
            1
            for s in self.spans
            if s.name == name
            and s.phase == phase
            and s.parent in self.by_id
            and self.by_id[s.parent].name == under
        )

    def count(self, *names: str, phase: Optional[str] = "ops") -> int:
        wanted = set(names)
        return sum(
            s.count
            for s in self.spans
            if s.name in wanted and (not phase or s.phase == phase)
        )

    def top_level_seconds(self) -> float:
        """Op-phase time covered by spans that have an op and no parent."""
        return sum(
            s.seconds
            for s in self.spans
            if s.phase == "ops" and s.parent is None and s.op is not None
        )


class CountingIoHook:
    """Counts opens and bytes on the volume read path (a ``VolumeIoHook``).

    Installed only in a counted or traced pass - never inside a timed
    interval. The metadata sidecar also reads through ``open_volume``; it is
    not repository data and is left uncounted.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.opens = 0
        self.bytes_read = 0
        self._previous: Any = None

    def wrap(self, path: Any, uri: str, handle: Any) -> Any:
        if uri.startswith("metastore:"):
            return handle
        with self._lock:
            self.opens += 1
        return _CountingHandle(self, handle)

    def add(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_read += nbytes

    def __enter__(self) -> "CountingIoHook":
        self._previous = set_volume_io_hook(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        set_volume_io_hook(self._previous)


class _CountingHandle:
    def __init__(self, hook: CountingIoHook, handle: Any) -> None:
        self._hook = hook
        self._handle = handle

    def read(self, size: int = -1) -> bytes:
        data = self._handle.read(size)
        self._hook.add(len(data))
        return data

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._handle.seek(offset, whence)

    def tell(self) -> int:
        return self._handle.tell()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "_CountingHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
