"""The end-to-end data-to-insight benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 7] [--seconds S]
                                  [--trace [0|1]] [--trace-out spans.json]

The parent process is an untimed preflight (import ``repro``, build or reuse
the fixture under ``.bench_build/``, read every fixture file once); every
workload then runs in a fresh child interpreter with ``PYTHONHASHSEED=0``.
With ``--trace 0`` the child measures the end-to-end metrics with no wrapper
or hook installed; with ``--trace 1`` it replays the first third of the same
ops twice, bare and under the layer spans of ``spans.py``, and reports the
per-layer metrics. The last line of standard output is one JSON object per
workload: ``correct``, ``attempted``, ``failed``, ``metrics``.

See README.md in this directory for the metric definitions and noise rules.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"  # fixture cache and per-run scratch
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from reference import ReferenceKernel, SpeedGauge  # noqa: E402 - repro-free

BLOCKS = 5  # equal-count blocks of a pass; throughput is their median
TIMED_BAND = (0.75, 1.35)  # sizing guard: timed seconds / --seconds
SETUP_FLOOR_S = 0.25  # sizing guard: a shorter set-up is mostly jitter
CHILD_TIMEOUT_S = 170
STEIM_PROBE_REPEATS = 50
REFERENCE_PROBE_REPEATS = 25


def load_declaration() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- running ops ---------------------------------------------------------------


@dataclass
class Pass:
    """What one pass over a list of ops produced."""

    # (op index, client) -> (start, end) of each answered op
    spans: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)
    answers: list[tuple[int, str, Any]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0
    attempted: int = 0
    # From the pass's SpeedGauge: what its wall times are multiplied by to
    # take the box's speed out, and the reference kernel's median seconds.
    scale: float = 1.0
    kernel_seconds: float = 0.0

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.spans.values()]


def run_ops(workload: Any, state: Any, ops: list[str], tracer: Any = None,
            kernel: Any = None) -> Pass:
    """Closed loop: each client sends its next op when the last one is
    answered; several clients replay the same ops in lock-step. With a
    ``kernel``, the box's speed is gauged between ops, outside their times."""
    done = Pass(attempted=len(ops) * workload.clients)
    gauge = SpeedGauge(kernel) if kernel is not None else None
    clock = time.perf_counter
    barrier = (
        threading.Barrier(workload.clients) if workload.clients > 1 else None
    )

    def client(number: int) -> None:
        for index, sql in enumerate(ops):
            if barrier is not None:
                try:
                    barrier.wait(timeout=60)
                except threading.BrokenBarrierError:
                    done.failures.append(f"op {index}: clients fell out of step")
                    return
            if tracer is not None:
                tracer.set_op(index)
            started = clock()
            try:
                result = workload.answer(state, sql, number)
            except Exception:  # an op that raises is a failed op, not a crash
                done.failures.append(f"op {index}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                ended = clock()
                if tracer is not None:
                    tracer.set_op(None)
            done.spans[(index, number)] = (started, ended)
            done.answers.append((index, sql, result))
            if gauge is not None and number == 0:
                gauge.tick()  # the other client waits at the barrier

    if gauge is not None:
        gauge.begin(samples=1)
    began = clock()
    if barrier is None:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(n,), name=f"client-{n}")
            for n in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    done.wall = clock() - began
    if gauge is not None:
        gauge.end(samples=1)
        done.scale, done.kernel_seconds = gauge.scale, gauge.kernel_seconds
    return done


def set_up(workload: Any, fixture: Any, seed: int, warm: list[str],
           kernel: Any) -> tuple[Any, float, float]:
    """Engine construction + metadata ingest + the warm-up pass + a GC: the
    seconds from start-of-setup to ready for the first timed op, and the
    scale that takes the box's speed out of them (gauged just before and
    just after)."""
    gc.collect()
    gauge = SpeedGauge(kernel)
    gauge.begin(samples=3)
    started = time.perf_counter()
    state = workload.setup(fixture, seed)
    warmed = run_ops(workload, state, warm)
    gc.collect()
    seconds = time.perf_counter() - started
    gauge.end(samples=3)
    if warmed.failures:
        raise RuntimeError(f"warm-up op failed: {warmed.failures[0]}")
    return state, seconds, gauge.scale


def digest_answers(answers: list[tuple[int, str, Any]]) -> list[tuple[int, str, Any]]:
    """Rows to summaries, so the rows themselves can be dropped."""
    from checking import summarize

    return [(index, sql, summarize(result)) for index, sql, result in answers]


def check_answers(checker: Any, digests: list[tuple[int, str, Any]]) -> list[str]:
    reasons = (checker.wrong(index, sql, got) for index, sql, got in digests)
    return [reason for reason in reasons if reason is not None]


def peak_rss_mb() -> float:
    """This process's own high-water mark. ``ru_maxrss`` will not do: across
    fork and exec it starts from the parent's, and a parent that has just
    built the fixture is twice the size of a child."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], tenth: int) -> float:
    return statistics.quantiles(values, n=10)[tenth - 1]


# -- the measuring run (--trace 0) ----------------------------------------------


def best_answers(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each op's fastest answer over the identical passes, per client, every
    pass scaled by its own gauge first.

    Bursts of interference only ever add time; an op's fastest of several
    answers is the nearest one gets to the program's own cost. An op that
    failed in every pass has no time (it counts as failed).
    """
    best: dict[tuple[int, int], float] = {}
    for done in passes:
        for key, (start, end) in done.spans.items():
            seconds = (end - start) * (done.scale if scaled else 1.0)
            best[key] = min(seconds, best.get(key, float("inf")))
    return list(best.values())


def block_rates(done: Pass) -> list[float]:
    """Answers per second in each of five equal-count blocks of one pass."""
    steps = 1 + max(index for index, _ in done.spans)
    per_block = max(1, steps // BLOCKS)
    rates = []
    for first in range(0, per_block * min(BLOCKS, steps), per_block):
        spans = [
            span for (index, _), span in done.spans.items()
            if first <= index < first + per_block
        ]
        wall = max(end for _, end in spans) - min(start for start, _ in spans)
        rates.append(len(spans) / wall)
    return rates


def measure(workload: Any, fixture: Any, seed: int, warm: list[str],
            timed: list[str], checker: Any) -> dict[str, Any]:
    from spans import CountingIoHook

    kernel = ReferenceKernel(fixture.objects)
    setups = []
    raw_setups = []
    passes: list[Pass] = []
    failures: list[str] = []
    digests = []
    remote_bytes = []
    for _ in range(workload.passes):
        state, seconds, scale = set_up(workload, fixture, seed, warm, kernel)
        setups.append(seconds * scale)
        raw_setups.append(seconds)
        before = workload.counters(state)
        done = run_ops(workload, state, timed, kernel=kernel)
        remote_bytes.append(
            (workload.counters(state).remote_bytes - before.remote_bytes)
            / done.attempted
        )
        workload.teardown(state)
        failures.extend(done.failures)
        # Between passes, outside every timed interval: rows to digests.
        digests.extend(digest_answers(done.answers))
        done.answers.clear()
        passes.append(done)
    peak_rss = peak_rss_mb()

    if workload.clients == 1:
        # Counting wraps every file handle, so it gets a pass of its own on
        # an identically prepared engine, outside every clock.
        state, _, _ = set_up(workload, fixture, seed, warm, kernel)
        with CountingIoHook() as hook:
            counted = run_ops(workload, state, timed)
        workload.teardown(state)
        if counted.failures:
            raise RuntimeError(f"counted op failed: {counted.failures[0]}")
        source_bytes = hook.bytes_read / counted.attempted
    else:
        # Remote bytes are the program's own count, so every timed pass has
        # one; with two clients it moves a little with the interleaving.
        source_bytes = statistics.median(remote_bytes)
    failures.extend(check_answers(checker, digests))

    answers = best_answers(passes)
    raw = [t for done in passes for t in done.latencies]
    return {
        "attempted": sum(done.attempted for done in passes),
        "failures": failures,
        "metrics": {
            "setup_s": statistics.median(setups),
            "answer_ms_p50": statistics.median(answers) * 1e3,
            "source_bytes_per_answer": source_bytes,
            "peak_rss_mb": peak_rss,
        },
        "info": {
            "timed_seconds": sum(done.wall for done in passes),
            "passes": len(passes),
            "latency_samples": len(answers),
            "reference_kernel_ms": [done.kernel_seconds * 1e3 for done in passes],
            "pass_scales": [done.scale for done in passes],
            "setups_s": setups,
            "answers_checked": checker.checked,
            "checked_by_expectation": checker.by_expectation,
            "unscaled_answer_ms_p50": statistics.median(
                best_answers(passes, scaled=False)) * 1e3,
            "unscaled_setup_s": statistics.median(raw_setups),
            "raw_answer_ms_p50": statistics.median(raw) * 1e3,
            "raw_answer_ms_p90": percentile(raw, 9) * 1e3,
            "raw_throughput_qps": statistics.median(
                [statistics.median(block_rates(done))
                 for done in passes]
            ),
        },
    }


# -- the traced run (--trace 1) --------------------------------------------------


def steim_probe(fixture: Any) -> float:
    """Msamples/s of ``steim_decode`` alone: one fixture file's payloads,
    decoded ``STEIM_PROBE_REPEATS`` times."""
    from repro.mseed import HEADER_SIZE, scan_headers, steim_decode

    path = sorted(fixture.objects.rglob("*.xseed"))[0]
    raw = path.read_bytes()
    payloads = []
    offset = 0
    for header in scan_headers(path):
        offset += HEADER_SIZE
        payloads.append((raw[offset : offset + header.payload_len], header.nsamples))
        offset += header.payload_len
    samples = sum(n for _, n in payloads)
    started = time.perf_counter()
    for _ in range(STEIM_PROBE_REPEATS):
        for payload, nsamples in payloads:
            steim_decode(payload, nsamples)
    elapsed = time.perf_counter() - started
    return STEIM_PROBE_REPEATS * samples / elapsed / 1e6


def layer_metrics(index: Any, answers: int, delta: Any, hook: Any,
                  extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from one traced pass. ``*_ms`` is mean busy
    milliseconds per answer over the op phase; counts are per answer."""

    def ms(seconds: float) -> float:
        return seconds * 1e3 / answers

    def per_call_ms(name: str) -> float:
        calls = index.calls(name, phase=None)
        return index.busy(name, phase=None) * 1e3 / calls if calls else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    fallbacks = index.nested_calls("core.mount_file", under="core.cache_scan")
    listing = ("mseed.repository.uris", "mseed.repository.len")
    headers = ("mseed.scan_headers", "mseed.read_file_metadata")
    simstore = ("remote.simstore.get", "remote.simstore.head",
                "remote.simstore.list_keys")
    metrics = {
        "db.bind_ms": ms(index.busy("db.bind")),
        "db.optimize_ms": ms(index.busy("db.optimize")),
        "db.stage1_ms": ms(index.busy("db.stage1")),
        "db.stage2_self_ms": ms(index.self_seconds("db.stage2")),
        "core.prepare_ms": ms(index.busy("core.prepare")),
        "core.executor_self_ms": ms(index.self_seconds("core.execute")),
        "core.mount_file_ms": ms(index.busy("core.mount_file")),
        "core.mount_file_calls": index.calls("core.mount_file") / answers,
        "core.cache_scan_ms": ms(index.busy("core.cache_scan")),
        "core.cache.store_ms": ms(index.busy("core.cache.store")),
        # File accesses served by a cache scan; one that finds its entry
        # evicted falls back to a mount and is a miss.
        "core.cache.hit_rate": share(
            index.calls("core.cache_scan") - fallbacks,
            index.calls("core.cache_scan") - fallbacks
            + index.calls("core.mount_file"),
        ),
        "core.cache.evictions": delta.cache_evictions / answers,
        # Set-up work too, so these two are per call over both phases.
        "core.metastore.load_ms": per_call_ms("core.metastore.load"),
        "ingest.lazy_metadata_ms": per_call_ms("ingest.lazy_metadata"),
        "ingest.xseed.extract_metadata_ms": ms(
            index.busy("ingest.xseed.extract_metadata")
        ),
        "ingest.xseed.mount_ms": ms(index.busy("ingest.xseed.mount")),
        "ingest.xseed.mount_selective_ms": ms(
            index.busy("ingest.xseed.mount_selective")
        ),
        "ingest.samples_mounted": index.count(
            "ingest.xseed.mount", "ingest.xseed.mount_selective"
        ) / answers,
        "mseed.repository.listing_ms": ms(index.busy(*listing)),
        "mseed.repository.listings": index.calls(*listing) / answers,
        "mseed.scan_headers_ms": ms(index.busy(*headers)),
        "mseed.read_selected_ms": ms(index.busy("mseed.read_selected")),
        "mseed.steim_decode_ms": ms(index.busy("mseed.steim_decode")),
        "mseed.opens": hook.opens / answers,
        "mseed.bytes_read": hook.bytes_read / answers,
        "serve.execute_ms": ms(index.busy("serve.execute")),
        "serve.scheduler.wait_ms": ms(index.self_seconds("serve.scheduler.take")),
        "serve.scheduler.extract_ms": ms(index.busy("serve.scheduler.extract")),
        "serve.scheduler.shared_grant_share": share(
            delta.scheduler_shared_grants, delta.scheduler_grants
        ),
        "remote.fetch_spans_ms": ms(index.busy("remote.fetch_spans")),
        "remote.ranged_gets": delta.remote_ranged_gets / answers,
        "remote.transport.requests": delta.transport_requests / answers,
        "remote.transport.get_ms": ms(index.busy("remote.transport.get")),
        "remote.transport.head_ms": ms(index.busy("remote.transport.head")),
        "remote.transport.retry_share": share(
            delta.transport_retries, delta.transport_requests
        ),
        "remote.simstore.wait_ms": ms(index.busy(*simstore)),
    }
    metrics.update(extra)
    return metrics


# Which wrap targets each per-layer metric is read from: when one no longer
# resolves, the metric is reported as null instead of a misleading zero.
def metric_spans(metric: str) -> tuple[str, ...]:
    special = {
        "db.stage2_self_ms": ("db.stage2",),
        "core.executor_self_ms": ("core.execute",),
        "core.mount_file_calls": ("core.mount_file",),
        "core.cache.hit_rate": ("core.cache_scan", "core.mount_file"),
        "ingest.samples_mounted": ("ingest.xseed.mount", "ingest.xseed.mount_selective"),
        "mseed.repository.listing_ms": ("mseed.repository.uris", "mseed.repository.len"),
        "mseed.repository.listings": ("mseed.repository.uris", "mseed.repository.len"),
        "mseed.scan_headers_ms": ("mseed.scan_headers", "mseed.read_file_metadata"),
        "mseed.read_selected_ms": ("mseed.read_selected",),
        "serve.scheduler.wait_ms": ("serve.scheduler.take",),
        "remote.simstore.wait_ms": ("remote.simstore.get", "remote.simstore.head",
                                    "remote.simstore.list_keys"),
    }
    if metric in special:
        return special[metric]
    if metric.endswith("_ms"):
        return (metric[: -len("_ms")],)
    return ()


def subtract(after: Any, before: Any) -> Any:
    return type(after)(
        **{k: v - getattr(before, k) for k, v in vars(after).items()}
    )


def trace(workload: Any, fixture: Any, seed: int, warm: list[str],
          timed: list[str], checker: Any, synthesize_s: float,
          trace_out: Optional[str]) -> dict[str, Any]:
    from spans import CountingIoHook, SpanIndex, Tracer, span_names

    kernel = ReferenceKernel(fixture.objects)

    # Bare pass: the same ops with nothing installed, for the overhead share.
    state, _, _ = set_up(workload, fixture, seed, warm, kernel)
    cpu_before = time.process_time()
    bare = run_ops(workload, state, timed)
    cpu_seconds = time.process_time() - cpu_before
    workload.teardown(state)

    tracer = Tracer()
    tracer.install()
    try:
        state, _, _ = set_up(workload, fixture, seed, warm, kernel)
        reused_share = workload.reused_share(state)
        before = workload.counters(state)
        tracer.phase = "ops"
        with CountingIoHook() as hook:
            traced = run_ops(workload, state, timed, tracer=tracer)
        delta = subtract(workload.counters(state), before)
        workload.teardown(state)
    finally:
        tracer.uninstall()

    failures = bare.failures + traced.failures
    failures += check_answers(checker, digest_answers(traced.answers))
    index = SpanIndex(tracer.spans)
    bare_p50 = statistics.median(bare.latencies)
    traced_p50 = statistics.median(traced.latencies)
    metrics: dict[str, Optional[float]] = dict(
        layer_metrics(
            index, traced.attempted, delta, hook,
            {
                "core.metastore.reused_share": reused_share,
                "mseed.steim_decode_msamples_per_s": steim_probe(fixture),
                "process.answer_ms_p90": percentile(bare.latencies, 9) * 1e3,
                "process.throughput_qps": statistics.median(block_rates(bare)),
                "process.cpu_ms_per_answer": cpu_seconds * 1e3 / bare.attempted,
                "process.trace_overhead_share": traced_p50 / bare_p50 - 1.0,
                "process.reference_kernel_ms": statistics.median(
                    kernel() for _ in range(REFERENCE_PROBE_REPEATS)
                ) * 1e3,
                "fixture.synthesize_s": synthesize_s,
            },
        )
    )
    warnings = []
    gone = {name for t in tracer.unresolved for name in span_names(t)}
    for target in tracer.unresolved:
        warnings.append(
            f"wrap target {target.module}:{target.path} no longer resolves; "
            f"its metrics read null"
        )
    for name in metrics:
        if gone.intersection(metric_spans(name)):
            metrics[name] = None

    if trace_out:
        with open(trace_out, "w") as handle:
            json.dump({"workload": workload.name, "seed": seed,
                       "spans": tracer.as_json()}, handle)
    mean_answer = sum(traced.latencies) / len(traced.latencies)
    return {
        "attempted": bare.attempted + traced.attempted,
        "failures": failures,
        "metrics": metrics,
        "warnings": warnings,
        "info": {
            "traced_ops": len(timed),
            "spans": len(tracer.spans),
            "span_coverage_share": index.top_level_seconds()
            / (mean_answer * len(traced.latencies)),
            "bare_answer_ms_p50": bare_p50 * 1e3,
            "traced_answer_ms_p50": traced_p50 * 1e3,
        },
    }


# -- child: one workload in a fresh interpreter -----------------------------------


def child_main(args: argparse.Namespace) -> int:
    from checking import Checker
    from workloads import WORKLOADS, Fixture

    workload = WORKLOADS[args.workload]
    fixture = Fixture(Path(args.fixture), Path(args.workdir))
    warm_count, timed_count = workload.op_counts(args.seconds, args.smoke)
    ops = workload.make_ops(args.seed, warm_count + timed_count)
    warm, timed = ops[:warm_count], ops[warm_count:]
    checker = Checker(fixture, args.seed)
    if args.trace:
        report = trace(workload, fixture, args.seed, warm, timed, checker,
                       args.synthesize_s, args.trace_out)
    else:
        report = measure(workload, fixture, args.seed, warm, timed, checker)
    report["workload"] = workload.name
    report["ops"] = {"warm_up": warm_count, "timed": timed_count,
                     "clients": workload.clients}
    print(json.dumps(report))
    return 0


# -- parent: preflight, children, printing -----------------------------------------


def ensure_fixture(measure_synthesis: bool) -> tuple[Path, float]:
    """The built fixture's directory and how long synthesis takes.

    The fixture is the benchmark's build product: made once per checkout
    under ``.bench_build/`` and reused. A traced run synthesizes it again,
    because ``fixture.synthesize_s`` is a number as measured, not remembered.
    """
    from workloads import fixture_key, synthesize_fixture

    BUILD.mkdir(exist_ok=True)
    final = BUILD / f"e2e-fixture-{fixture_key(SRC)}"
    meta = final / "fixture.json"
    if final.exists() and not measure_synthesis:
        with open(meta) as handle:
            return final, json.load(handle)["synthesize_s"]
    scratch = Path(tempfile.mkdtemp(prefix="fixture-", dir=BUILD))
    try:
        seconds = synthesize_fixture(scratch, sidecar=not final.exists())
        with open(scratch / "fixture.json", "w") as handle:
            json.dump({"synthesize_s": seconds}, handle)
        if not final.exists():
            try:
                os.rename(scratch, final)
            except OSError:
                pass  # another run built it first; theirs is as good
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return final, seconds


def run_child(name: str, args: argparse.Namespace, fixture_root: Path,
              synthesize_s: float) -> dict[str, Any]:
    with tempfile.TemporaryDirectory(prefix="run-", dir=BUILD) as workdir:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--child",
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--fixture", str(fixture_root), "--workdir", workdir,
            "--synthesize-s", repr(synthesize_s),
        ]
        if args.smoke:
            command.append("--smoke")
        if args.trace and args.trace_out:
            out = Path(args.trace_out)
            if len(args.workloads) > 1:
                out = out.with_name(f"{out.stem}.{name}{out.suffix}")
            command += ["--trace-out", str(out)]
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        try:
            output, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"workload {name} exited with {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def print_report(report: dict[str, Any], args: argparse.Namespace,
                 declaration: dict[str, Any]) -> dict[str, Any]:
    """Every metric by name with its unit, the sizing guard, and the result
    object the contract asks for."""
    name = report["workload"]
    ops = report["ops"]
    info = report["info"]
    print(f"== {name}: seed {args.seed}, {ops['clients']} client(s), "
          f"{ops['warm_up']} warm-up + {ops['timed']} timed ops each")
    result_metrics = {}
    for metric in declaration["per_layer" if args.trace else "end_to_end"]:
        value = report["metrics"].get(metric["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:15s} {metric['name']:36s} {shown:>12s} {metric['unit']}")
        result_metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for key, value in info.items():
        print(f"{name:15s} ({key}: {value})")
    warnings = list(report.get("warnings", []))
    if not args.trace and not args.smoke:
        ratio = info["timed_seconds"] / args.seconds
        if not TIMED_BAND[0] <= ratio <= TIMED_BAND[1]:
            warnings.append(
                f"timed phase took {info['timed_seconds']:.1f} s for "
                f"--seconds {args.seconds:g}: outside "
                f"{TIMED_BAND[0]:g}-{TIMED_BAND[1]:g}x, re-size "
                f"ops_per_second in a benchmark issue"
            )
        if report["metrics"]["setup_s"] < SETUP_FLOOR_S:
            warnings.append(
                f"setup_s {report['metrics']['setup_s']:.2f} s is under "
                f"{SETUP_FLOOR_S} s: below the noise floor, re-size the warm-up"
            )
    for warning in warnings:
        print(f"warning: {name}: {warning}", file=sys.stderr)
    for failure in report["failures"][:5]:
        print(f"failed: {name}: {failure}", file=sys.stderr)
    return {
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": result_metrics,
    }


def preflight(args: argparse.Namespace) -> tuple[Path, float]:
    import repro  # noqa: F401 - fail here, before any clock, if src/ is gone

    fixture_root, synthesize_s = ensure_fixture(bool(args.trace))
    for path in sorted(fixture_root.rglob("*")):
        if path.is_file():
            path.read_bytes()  # first touch happens before any clock starts
    return fixture_root, synthesize_s


def run_workloads(args: argparse.Namespace) -> list[dict[str, Any]]:
    fixture_root, synthesize_s = preflight(args)
    return [
        run_child(name, args, fixture_root, synthesize_s)
        for name in args.workloads
    ]


def parent_main(args: argparse.Namespace) -> int:
    declaration = load_declaration()
    results = [
        print_report(report, args, declaration)
        for report in run_workloads(args)
    ]
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


# -- tools ---------------------------------------------------------------------------


def list_spans() -> int:
    from spans import TARGETS, resolve

    missing = 0
    for target in TARGETS:
        found = resolve(target) is not None
        missing += not found
        print(f"{target.span:32s} {target.module}:{target.path:40s} "
              f"{'ok' if found else 'UNRESOLVED'}")
    return 1 if missing else 0


def regenerate_expected(args: argparse.Namespace) -> int:
    """Write expected/seed7.json from eager ingestion (Ei): untimed."""
    from checking import EXPECTED_PATH, EXPECTED_SEED, sql_key, summarize
    from repro.db import Database
    from repro.ingest import eager_ingest
    from repro.mseed import FileRepository
    from workloads import WORKLOADS

    fixture_root, _ = preflight(args)
    db = Database()
    eager_ingest(db, FileRepository(fixture_root / "objects"), build_indexes=False)
    answers = {}
    for workload in WORKLOADS.values():
        warm_count, timed_count = workload.op_counts(args.seconds, False)
        ops = workload.make_ops(EXPECTED_SEED, warm_count + timed_count)
        for sql in ops[warm_count:]:
            answers[sql_key(sql)] = summarize(db.execute(sql))
        print(f"{workload.name}: {timed_count} answers", file=sys.stderr)
    EXPECTED_PATH.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(answers[key], sort_keys=True)}"
             for key in sorted(answers)]
    with open(EXPECTED_PATH, "w") as handle:  # one answer a line, diffable
        handle.write(f'{{"seed": {EXPECTED_SEED}, "seconds": {args.seconds:g}, '
                     '"answers": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_agreement(args: argparse.Namespace) -> int:
    """Two interleaved sets (A B B A ...) of N full runs on the same seeds;
    per workload x end-to-end metric: both medians, their relative
    difference, both spreads, the bound and a verdict."""
    declaration = load_declaration()
    runs = args.check_agreement
    values: dict[tuple[str, str, str], list[float]] = {}
    taken = {"A": 0, "B": 0}
    incorrect = 0
    for position in range(2 * runs):
        label = "AB"[(position % 4) in (1, 2)]
        run_args = argparse.Namespace(**vars(args))
        run_args.seed = args.seed + taken[label]
        run_args.trace = 0
        taken[label] += 1
        for report in run_workloads(run_args):
            incorrect += bool(report["failures"])
            for metric, value in report["metrics"].items():
                values.setdefault((report["workload"], metric, label), []).append(value)
            print(f"set {label} seed {run_args.seed} {report['workload']}: "
                  + " ".join(f"{k}={v:.5g}" for k, v in report["metrics"].items()),
                  flush=True)
    disagreements = 0
    print(f"{'workload':15s} {'metric':24s} {'median A':>11s} {'median B':>11s} "
          f"{'diff':>7s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s} verdict")
    for workload in args.workloads:
        for metric in declaration["end_to_end"]:
            a = values[(workload, metric["name"], "A")]
            b = values[(workload, metric["name"], "B")]
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = abs(median_b - median_a) / median_a
            spreads = (spread(a), spread(b)) if runs >= 2 else (0.0, 0.0)
            agree = difference <= metric["bound"] and (
                metric["name"] == "setup_s" or max(spreads) <= metric["bound"]
            )
            disagreements += not agree
            print(f"{workload:15s} {metric['name']:24s} {median_a:11.5g} "
                  f"{median_b:11.5g} {difference:7.2%} {spreads[0]:8.2%} "
                  f"{spreads[1]:8.2%} {metric['bound']:6.2f} "
                  f"{'ok' if agree else 'DISAGREE'}")
    return 1 if disagreements or incorrect else 0


def parse_args(argv: list[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=7,
                        help="drives the generated inputs only")
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"],
                        help="sizes the fixed op count of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from spans")
    parser.add_argument("--trace-out", help="write the traced pass's spans here")
    parser.add_argument("--smoke", action="store_true",
                        help="op counts / 20: a functional check, not a measurement")
    parser.add_argument("--list-spans", action="store_true",
                        help="list the wrap targets and whether they resolve")
    parser.add_argument("--regenerate-expected", action="store_true",
                        help="rewrite expected/seed7.json from eager ingestion")
    parser.add_argument("--check-agreement", type=int, metavar="N",
                        help="two interleaved sets of N runs; non-zero on disagreement")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fixture", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--synthesize-s", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workloads = [args.workload] if args.workload else list(WORKLOADS)
    return args


def main(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
    except ImportError as exc:
        print(f"cannot import the program under test from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.list_spans:
        return list_spans()
    if args.regenerate_expected:
        return regenerate_expected(args)
    if args.check_agreement:
        return check_agreement(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
