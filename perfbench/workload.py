"""One workload in one fresh process: set up, send requests, report.

Started by ``run.py`` (never imported by it).  The process times its own
set-up from the moment the orchestrator spawned it to the first timed
request, then sends requests for ``--seconds`` and writes one JSON document
to ``--out``:

* ``--trace 0`` measures the end-to-end figures with no wrapper installed;
* ``--trace 1`` installs the span wrappers of :mod:`spans` and alternates
  traced and untraced windows, so the per-layer figures and the tracing
  overhead come from the same process.

Every workload is a closed loop: a client sends its next request when the
previous one returned.  hot-ex41 and cold-suite have one client calling
``Session.run``; serve-mix has ``SERVE_CLIENTS_PER_CPU`` clients per CPU
calling ``Gateway.submit``.  Latencies, throughput and set-up time are
taken on a dedicated-host clock (:mod:`hosttime`): the time the host's
hypervisor took the CPU away is left out.  Every response's checksum is
compared with the interpreter reference the orchestrator computed
(``--references``); a mismatch, an exception or a refused request counts as
a failure.
"""

from __future__ import annotations

import argparse
import asyncio
import copy
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

import hosttime
import programs
import spans

#: Closed-loop warm-up requests of hot-ex41 before timing starts.
HOT_WARMUP = 30
#: Concurrent serve-mix clients per CPU: enough to keep every execution
#: worker of the gateway busy and its queue non-empty.
SERVE_CLIENTS_PER_CPU = 2
#: Untimed serve-mix traffic before timing starts: the first second of a
#: fresh gateway runs measurably slower.
SERVE_WARMUP_S = 1.0
#: Length of each traced / untraced window in a ``--trace 1`` run.
TRACE_WINDOW_S = 0.5
#: Interval between the serve-mix steal marks (:class:`hosttime.StealWindows`).
STEAL_MARK_S = 0.25

ANALYSIS_PASSES = ("dependence", "build-pdm", "algorithm1", "full-rank",
                   "legality", "partition")
PLAN_PASSES = ("tile", "coalesce")

#: The layer metrics whose spans the entry span calls directly.  With the
#: entry's own self time they must add up to the entry span's wall
#: (``trace.self_sum_error_pct``); a layer that is double counted or
#: missed shows there.  ``codegen.prepare`` runs inside the executor under
#: ``Session.run``, but in the gateway's analysis stage.
ENTRY_LAYERS = {
    "api.session_run": ("api.session_self_ms", "api.resolve_ms", "runtime.store_init_ms",
                        "core.analyze_ms", "plan.build_ms", "plan.passes_ms",
                        "runtime.executor_ms"),
    "gateway.submit": ("gateway.submit_self_ms", "api.resolve_ms",
                       "runtime.store_init_ms", "core.analyze_ms", "plan.build_ms",
                       "plan.passes_ms", "codegen.prepare_ms", "runtime.executor_ms"),
}


class Record:
    """One request as the client saw it."""

    __slots__ = ("key", "start", "end", "dedicated", "traced", "rid", "token", "ok",
                 "error", "result")

    def __init__(self, key, start, traced):
        self.key = key
        self.start = start
        self.end = start
        #: Latency on the dedicated-host clock.
        self.dedicated = 0.0
        self.traced = traced
        self.rid = self.token = None
        self.ok = False
        self.error: Optional[str] = None
        self.result = None

    @property
    def latency(self) -> float:
        return self.end - self.start


class Outcome:
    """The fields of a RunResult the per-layer metrics read."""

    __slots__ = ("analysis_seconds", "program_seconds", "total_seconds", "backend",
                 "threads", "num_chunks")

    def __init__(self, result):
        self.analysis_seconds = result.analysis_seconds
        self.program_seconds = result.program_seconds
        self.total_seconds = result.total_seconds
        self.backend = result.backend
        self.threads = result.threads
        self.num_chunks = result.num_chunks


class Client:
    """Request bookkeeping shared by every client of one process."""

    def __init__(self, tracer: Optional[spans.Tracer], references: Dict[str, dict]):
        self.tracer = tracer
        self.references = references
        self.records: List[Record] = []
        self.start = 0.0
        #: Longest gap between a client's response and its next send.
        self.lag_max = 0.0

    def traced_now(self, now: float) -> bool:
        if self.tracer is None:
            return False
        return int((now - self.start) / TRACE_WINDOW_S) % 2 == 1

    def begin(self, key: str, previous_end: Optional[float]) -> Record:
        start = time.perf_counter()
        if previous_end is not None:
            self.lag_max = max(self.lag_max, start - previous_end)
        traced = self.traced_now(start)
        record = Record(key, start, traced)
        if self.tracer is not None:
            # Orphan spans (outside any request) count only in traced windows.
            self.tracer.window = traced
            if traced:
                record.rid, record.token = self.tracer.begin_request()
        self.records.append(record)
        return record

    def finish(self, record: Record, result, error: Optional[str]) -> None:
        record.end = time.perf_counter()
        if error is not None:
            record.error = error
        else:
            # Keep a few scalar fields only: the RunResult holds the
            # request's whole store, megabytes per request at full size.
            record.result = Outcome(result)
            expected = self.references[record.key]["checksum"]
            if result.checksum == expected:
                record.ok = True
            else:
                record.error = f"checksum {result.checksum!r} != reference {expected!r}"
        if record.traced:
            self.tracer.end_request(record.rid, record.token, record.start, record.end)


# --------------------------------------------------------------------------- #
# the loops
# --------------------------------------------------------------------------- #

# A request source yields ``(program key, send, may_stop)``; a loop ends at
# the first ``may_stop`` request after the deadline.

def hot_requests(session, nest, key: str) -> Iterator:
    while True:
        yield key, lambda: session.run(nest), True


def cold_requests(seed: int, tiny: bool) -> Iterator:
    """Each pass is one new Session over every suite program (cold caches).

    The run stops only where a block of passes (every N once) begins, so
    every run sends the same mix of sizes.
    """
    from repro.api import Session
    from repro.workloads import workload_suite

    for n, order, starts_block in programs.cold_passes(seed, tiny):
        nests = {case.name: case.nest for case in workload_suite(n)}
        with Session(backend="native", mode="serial") as session:
            for index, name in enumerate(order):
                nest = nests[name]
                yield (programs.key((name, n)), (lambda s=session, x=nest: s.run(x)),
                       starts_block and index == 0)


def session_loop(client: Client, requests: Iterator,
                 seconds: float) -> Tuple[float, float]:
    """One client calling ``Session.run`` on this thread.

    Serial requests run wholly on the client's thread, so its on-CPU time
    is their dedicated-host time.  Returns the loop's wall and dedicated
    seconds.
    """
    client.start = time.perf_counter()
    deadline = client.start + seconds
    loop_clock = hosttime.thread_seconds()
    previous_end = None
    try:
        for key, send, may_stop in requests:
            if may_stop and time.perf_counter() >= deadline:
                break
            record = client.begin(key, previous_end)
            clock = hosttime.thread_seconds()
            result = error = None
            try:
                result = send()
            except Exception as exc:  # a failed request is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            record.dedicated = hosttime.thread_seconds() - clock
            client.finish(record, result, error)
            previous_end = record.end
    finally:
        requests.close()
        if client.tracer is not None:
            client.tracer.window = False
    return time.perf_counter() - client.start, hosttime.thread_seconds() - loop_clock


async def gateway_loop(client: Client, gateway, templates, sequence: Iterator,
                       seconds: float, clients: int,
                       samples=None) -> Tuple[float, float]:
    """``clients`` concurrent clients calling ``Gateway.submit``.

    They draw from one shared sequence and stop at the first block start
    after the deadline, so a run sends whole blocks.  A gateway request
    runs on several threads, so its dedicated-host time is its wall clock
    less the share the host stole meanwhile.  Returns the wall and
    dedicated seconds until the last response.
    """
    from repro.exceptions import GatewayOverloaded

    steal = hosttime.StealWindows()
    client.start = time.perf_counter()
    deadline = client.start + seconds
    stopped = False

    async def mark_steal() -> None:
        while True:
            await asyncio.sleep(STEAL_MARK_S)
            steal.mark()

    async def one_client() -> None:
        nonlocal stopped
        previous_end = None
        while not stopped:
            program, starts_block = next(sequence)
            if starts_block and time.perf_counter() >= deadline:
                stopped = True
                break
            if samples is not None:
                stats = gateway.stats()
                samples["pending"].append(stats.pending)
                samples["queued_groups"].append(stats.queued_groups)
            # Every request submits its own nest object (a shallow copy of
            # the warm template), as a client deserializing it would.
            nest = copy.copy(templates[program])
            record = client.begin(programs.key(program), previous_end)
            result = error = None
            try:
                result = await gateway.submit(nest, wait=False)
            except GatewayOverloaded as exc:
                error = f"refused: {exc}"
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            client.finish(record, result, error)
            previous_end = record.end

    marker = asyncio.ensure_future(mark_steal())
    try:
        await asyncio.gather(*(one_client() for _ in range(clients)))
    finally:
        end = time.perf_counter()
        marker.cancel()
        await asyncio.gather(marker, return_exceptions=True)
        if client.tracer is not None:
            client.tracer.window = False
    steal.mark()
    for record in client.records:
        record.dedicated = steal.dedicated_seconds(record.start, record.end)
    return end - client.start, steal.dedicated_seconds(client.start, end)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #

def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _top_level_seconds(request_spans: List[spans.Span], name: str) -> float:
    """Time in spans called ``name``, not counting ones nested in another."""
    by_id = {span.sid: span for span in request_spans}
    total = 0.0
    for span in request_spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            total += span.seconds
    return total


def per_layer(client: Client, tracer: spans.Tracer, kernel_before, kernel_after,
              gateway_samples) -> Dict[str, float]:
    traced = [r for r in client.records if r.traced]
    untraced = [r for r in client.records if not r.traced]
    by_request: Dict[int, List[spans.Span]] = {}
    for span in tracer.spans:
        by_request.setdefault(span.rid, []).append(span)
    orphans = by_request.pop(0, [])
    count = max(1, len(traced))

    def request_spans(name: str):
        return [s for r in traced for s in by_request.get(r.rid, ()) if s.name == name]

    def layer_ms(name: str) -> float:
        attributed = sum(
            _top_level_seconds(by_request.get(r.rid, []), name) for r in traced
        )
        orphaned = sum(span.seconds for span in orphans if span.name == name)
        return (attributed + orphaned) / count * 1e3

    selfs = spans.self_times(tracer.spans)

    def self_ms(name: str) -> float:
        return sum(selfs[s.sid] for s in request_spans(name)) / count * 1e3

    analyze = request_spans("core.analyze")
    misses = [s.info for s in analyze if s.info and not s.info["hit"]]
    optimize = [s.info for s in request_spans("plan.passes") if s.info]
    with_build = len({s.rid for s in request_spans("plan.build")})
    results = [r.result for r in traced if r.result is not None]

    unnested = 0
    uncovered = wall = 0.0
    entry_wall = {name: 0.0 for name in ENTRY_LAYERS}
    for record in traced:
        spans_here = by_request.get(record.rid, [])
        if not spans.nests_properly(spans_here, record.start, record.end):
            unnested += 1
        wall += record.end - record.start
        for span in spans_here:
            if span.name in ENTRY_LAYERS:
                entry_wall[span.name] += span.seconds
                uncovered += selfs[span.sid]
            elif span.name == "request":
                uncovered += selfs[span.sid]

    def latency_mean(records) -> float:
        return _mean(r.dedicated for r in records if r.ok)

    hits = kernel_after["hits"] - kernel_before["hits"]
    lookups = hits + kernel_after["misses"] - kernel_before["misses"]
    attempted = max(1, len(client.records))
    metrics = {
        "api.resolve_ms": layer_ms("api.resolve"),
        "api.session_self_ms": self_ms("api.session_run"),
        "api.result_gap_ms": _mean(
            r.latency - (r.result.analysis_seconds + r.result.program_seconds
                         + r.result.total_seconds)
            for r in untraced if r.result is not None
        ) * 1e3,
        "core.analyze_ms": layer_ms("core.analyze"),
        "core.cache_hit_ratio": (
            sum(1 for s in analyze if s.info and s.info["hit"]) / len(analyze)
            if analyze else 0.0
        ),
    }
    for name in ANALYSIS_PASSES:
        metrics[f"core.pass.{name}_ms"] = _mean(
            info["passes"].get(name, 0.0) for info in misses
        ) * 1e3
    metrics.update({
        "plan.build_ms": layer_ms("plan.build"),
        "plan.passes_ms": layer_ms("plan.passes"),
    })
    for name in PLAN_PASSES:
        metrics[f"plan.pass.{name}_ms"] = sum(
            info["passes"].get(name, 0.0) for info in optimize
        ) / count * 1e3
    metrics.update({
        "plan.chunks": _mean(result.num_chunks for result in results),
        "plan.program_hit_ratio": 1.0 - with_build / count if traced else 0.0,
        "codegen.prepare_ms": layer_ms("codegen.prepare"),
        "codegen.kernel_builds": float(kernel_after["builds"]),
        "codegen.build_s": float(kernel_after["build_seconds"]),
        "codegen.kernel_hit_ratio": hits / lookups if lookups else 0.0,
        "codegen.native_share": _mean(
            1.0 if result.backend.startswith(("native-cc", "native-numba")) else 0.0
            for result in results
        ),
        "runtime.store_init_ms": layer_ms("runtime.store_init"),
        "runtime.telemetry_ms": layer_ms("runtime.telemetry"),
        "runtime.telemetry_calls": (
            len(request_spans("runtime.telemetry"))
            + sum(1 for s in orphans if s.name == "runtime.telemetry")
        ) / count,
        "runtime.executor_ms": layer_ms("runtime.executor"),
        "runtime.kernel_ms": layer_ms("runtime.kernel"),
        "runtime.threads": _mean(result.threads for result in results),
        "gateway.submit_self_ms": self_ms("gateway.submit"),
        "gateway.pending_mean": _mean(gateway_samples["pending"]),
        "gateway.queued_groups_max": float(max(gateway_samples["queued_groups"],
                                               default=0)),
        "gateway.rejected": float(gateway_samples["rejected"]),
        "loadgen.lag_ms_max": client.lag_max * 1e3,
        "trace.coverage": 1.0 - uncovered / wall if wall else 0.0,
        "trace.overhead_pct": (
            (latency_mean(traced) / latency_mean(untraced) - 1.0) * 100.0
            if latency_mean(untraced) else 0.0
        ),
        "trace.unnested_requests": float(unnested),
        "trace.orphan_spans": len(orphans) / count,
        "error_rate": sum(1 for r in client.records if not r.ok) / attempted,
    })
    # The entry span this workload goes through, and how far the layer
    # metrics under it miss its wall.
    entry = max(entry_wall, key=entry_wall.get)
    entry_ms = entry_wall[entry] / count * 1e3
    accounted = sum(metrics[name] for name in ENTRY_LAYERS[entry])
    metrics["trace.self_sum_error_pct"] = (
        abs(accounted - entry_ms) / entry_ms * 100.0 if entry_ms else 0.0
    )
    return metrics


# --------------------------------------------------------------------------- #
# the process
# --------------------------------------------------------------------------- #

def environment() -> Dict[str, object]:
    import numpy
    from repro.codegen import native as native_codegen

    engine = native_codegen.resolve_engine()
    return {
        "cpu_count": os.cpu_count(),
        "c_compiler": native_codegen._find_c_compiler(),
        "openmp": native_codegen.openmp_supported() if engine == "cc" else None,
        "engine": engine,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_workers": os.environ.get("REPRO_WORKERS"),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "omp_wait_policy": os.environ.get("OMP_WAIT_POLICY"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=programs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned us")
    parser.add_argument("--spawned-cpu", required=True,
                        help="hosttime.cpu_times() of the parent then, as JSON")
    parser.add_argument("--references", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.codegen import native as native_codegen

    env = environment()
    if env["engine"] is None:
        print(
            "no native engine: repro.codegen.native.resolve_engine() found neither "
            "numba nor a C compiler, so every request would run a vectorized or "
            "compiled-Python fallback; refusing to measure that under this "
            "workload name",
            file=sys.stderr,
        )
        return 3
    with open(args.references, encoding="utf-8") as handle:
        references = json.load(handle)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    client = Client(tracer, references)
    report: Dict[str, object] = {"environment": env}

    def setup_done() -> None:
        # Set-up spans processes (the compilers), so the stolen share of
        # the whole machine is taken out.
        wall = time.monotonic() - args.spawned_at
        stolen = hosttime.stolen_share(json.loads(args.spawned_cpu), hosttime.cpu_times())
        report["setup_wall_s"] = wall
        report["setup_s"] = wall * (1.0 - stolen)
        report["kernel_before"] = native_codegen.kernel_cache_info()

    gateway_samples = {"pending": [], "queued_groups": [], "rejected": 0}
    if args.workload == "serve-mix":
        wall, dedicated = asyncio.run(serve_mix(args, client, setup_done,
                                                gateway_samples))
    else:
        wall, dedicated = closed(args, client, setup_done)
    records = client.records
    report.update({
        "wall_s": wall,
        "dedicated_s": dedicated,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r.ok),
        "errors": sorted({r.error for r in records if r.error})[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_s": [r.dedicated for r in records if r.ok and not r.traced],
        "wall_latencies_s": [r.latency for r in records if r.ok and not r.traced],
        "sent": _sent(records),
    })
    if tracer is not None:
        report["per_layer"] = per_layer(
            client, tracer, report["kernel_before"],
            native_codegen.kernel_cache_info(), gateway_samples,
        )
        spans_path = os.path.splitext(args.out)[0] + ".spans.json"
        _write(spans_path, {
            "fields": ["rid", "sid", "parent", "name", "start", "end", "thread", "info"],
            "spans": [span.to_list() for span in tracer.spans],
        })
        report["spans_file"] = spans_path
    _write(args.out, report)
    return 0


def _sent(records: List[Record]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        counts[record.key] = counts.get(record.key, 0) + 1
    return counts


def _write(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def closed(args, client: Client, setup_done):
    from repro.api import Session

    if args.workload == "hot-ex41":
        [program] = programs.distinct_programs("hot-ex41", args.tiny)
        nest = programs.build(program)
        session = Session(backend="native", mode="serial")
        for _ in range(HOT_WARMUP):
            session.run(nest)
        requests = hot_requests(session, nest, programs.key(program))
    else:
        # Build every size's kernels (the on-disk cache keeps all of them,
        # the process LRU the last 64) and warm the compiled bodies, one
        # pass per n; analysis caches and program LRUs stay per pass.
        from repro.workloads import workload_suite

        low, high = programs.sizes("cold-suite", args.tiny)["n_range"]
        for n in range(low, high + 1):
            with Session(backend="native", mode="serial") as warm:
                for case in workload_suite(n):
                    warm.run(case.nest)
        session = None
        requests = cold_requests(args.seed, args.tiny)
    setup_done()
    try:
        return session_loop(client, requests, args.seconds)
    finally:
        if session is not None:
            session.close()


async def serve_mix(args, client: Client, setup_done, gateway_samples):
    from repro.api import Session
    from repro.gateway import Gateway

    workers = os.cpu_count() or 1
    clients = SERVE_CLIENTS_PER_CPU * workers
    templates = {program: programs.build(program)
                 for program in programs.distinct_programs("serve-mix", args.tiny)}
    with Session(backend="native", mode="native-parallel", workers=workers) as session:
        async with Gateway(session, result_cache=0, coalesce=False,
                           exec_workers=workers, analysis_workers=1) as gateway:
            warm = Client(None, client.references)
            await gateway_loop(warm, gateway, templates,
                               programs.serve_sequence(args.seed + 1, args.tiny),
                               0.0 if args.tiny else SERVE_WARMUP_S, clients)
            setup_done()
            times = await gateway_loop(client, gateway, templates,
                                       programs.serve_sequence(args.seed, args.tiny),
                                       args.seconds, clients, gateway_samples)
            gateway_samples["rejected"] = gateway.stats().rejected
    return times


if __name__ == "__main__":
    sys.exit(main())
