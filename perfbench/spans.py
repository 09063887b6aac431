"""In-memory request spans around the public calls of each layer.

:func:`install` replaces layer entry points with timing wrappers, from
outside the program: the benchmark measures the layers without the program
knowing.  A wrapper records a span only while a traced request is current
(the :data:`CURRENT` context variable), so the same process can alternate
traced and untraced requests.  Spans of one request share its id and name
their parent span; they stay in memory and are written out once the run
ends.

Gateway requests cross threads: the gateway runs analysis and execution on
its own thread pools, which do not inherit the request's context.  The
stage wrappers there find the request through the nest object the request
submitted (every serve-mix request submits its own nest object).  Spans
that run with no request at all while tracing is on (the gateway's
telemetry updates on its event loop) are kept as orphans with request id 0
and reported, not dropped.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(request id, parent span id)`` of the traced request running here.
CURRENT: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Span:
    __slots__ = ("rid", "sid", "parent", "name", "start", "end", "thread", "info")

    def __init__(self, rid, sid, parent, name, start, end, thread, info):
        self.rid = rid
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.info = info

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.rid, self.sid, self.parent, self.name, self.start, self.end,
                self.thread, self.info]


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: True while the load generator is in a traced window; orphan spans
        #: are recorded only then.
        self.window = False
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: id(submitted nest) -> (request id, gateway.submit span id)
        self._requests_by_nest: Dict[int, Tuple[int, int]] = {}

    def next_id(self) -> int:
        return next(self._ids)

    def record(self, rid, sid, parent, name, start, end, info=None) -> None:
        span = Span(rid, sid, parent, name, start, end, threading.get_ident(), info)
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------ #
    def begin_request(self) -> Tuple[int, contextvars.Token]:
        """Make a new traced request current; returns (request id, token).

        The request's own span (recorded by :meth:`end_request`) has the
        request id as its span id, so layer spans name it as their parent.
        """
        rid = self.next_id()
        return rid, CURRENT.set((rid, rid))

    def end_request(self, rid: int, token, start: float, end: float) -> None:
        CURRENT.reset(token)
        self.record(rid, rid, 0, "request", start, end)

    def wrap(self, fn: Callable, name: str, on_result=None) -> Callable:
        """Time ``fn`` as span ``name`` under the current request."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            current = CURRENT.get()
            if current is None:
                if not tracer.window:
                    return fn(*args, **kwargs)
                current = (0, 0)  # orphan: tracing is on, no request here
            rid, parent = current
            sid = tracer.next_id()
            token = CURRENT.set((rid, sid))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                CURRENT.reset(token)
            tracer.record(rid, sid, parent, name, start, end,
                          on_result(result) if on_result else None)
            return result

        return wrapper

    def wrap_submit(self, fn: Callable, name: str) -> Callable:
        """Async wrapper of ``Gateway.submit``; registers the submitted nest."""
        tracer = self

        @functools.wraps(fn)
        async def wrapper(gateway, source, *args, **kwargs):
            current = CURRENT.get()
            if current is None:
                return await fn(gateway, source, *args, **kwargs)
            rid, parent = current
            sid = tracer.next_id()
            token = CURRENT.set((rid, sid))
            tracer._requests_by_nest[id(source)] = (rid, sid)
            start = time.perf_counter()
            try:
                return await fn(gateway, source, *args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._requests_by_nest.pop(id(source), None)
                CURRENT.reset(token)
                tracer.record(rid, sid, parent, name, start, end)

        return wrapper

    def wrap_stage(self, fn: Callable, name: str, nest_of: Callable) -> Callable:
        """A gateway stage on a pool thread: re-enter the request of its nest."""
        traced = self.wrap(fn, name)

        @functools.wraps(fn)
        def wrapper(gateway, *args):
            request = self._requests_by_nest.get(id(nest_of(*args)))
            if request is None:
                return traced(gateway, *args)
            token = CURRENT.set(request)
            try:
                return traced(gateway, *args)
            finally:
                CURRENT.reset(token)

        return wrapper


def _analyze_info(result):
    report, hit = result
    if hit:
        return {"hit": True}
    return {
        "hit": False,
        "passes": {t.name: t.seconds for t in report.pass_timings if not t.skipped},
    }


def _optimize_info(ctx):
    return {"passes": {t.name: t.seconds for t in ctx.timings if not t.skipped}}


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    Functions imported by name into another module are patched where they
    are looked up (the session and the gateway modules).
    """
    import repro.api.session as session_module
    import repro.gateway.gateway as gateway_module
    from repro.api.session import Session
    from repro.codegen.transformed_nest import TransformedLoopNest
    from repro.core.cache import AnalysisCache
    from repro.gateway import Gateway
    from repro.plan import PlanPassManager
    from repro.runtime.backends import NativeBackend
    from repro.runtime.executor import ParallelExecutor
    from repro.runtime.telemetry import ExecutionTelemetry

    resolve = tracer.wrap(session_module.resolve_source, "api.resolve")
    store_init = tracer.wrap(session_module.store_for_nest, "runtime.store_init")
    for module in (session_module, gateway_module):
        module.resolve_source = resolve
        module.store_for_nest = store_init

    Session.run = tracer.wrap(Session.run, "api.session_run")
    AnalysisCache.analyze = tracer.wrap(
        AnalysisCache.analyze, "core.analyze", on_result=_analyze_info
    )
    from_report = TransformedLoopNest.__dict__["from_report"].__func__
    TransformedLoopNest.from_report = classmethod(tracer.wrap(from_report, "plan.build"))
    TransformedLoopNest.execution_plan = tracer.wrap(
        TransformedLoopNest.execution_plan, "plan.build"
    )
    PlanPassManager.optimize = tracer.wrap(
        PlanPassManager.optimize, "plan.passes", on_result=_optimize_info
    )
    NativeBackend.prepare_plan = tracer.wrap(NativeBackend.prepare_plan, "codegen.prepare")
    NativeBackend.execute_plan = tracer.wrap(NativeBackend.execute_plan, "runtime.kernel")
    NativeBackend.execute_plan_parallel = tracer.wrap(
        NativeBackend.execute_plan_parallel, "runtime.kernel"
    )
    ParallelExecutor.run = tracer.wrap(ParallelExecutor.run, "runtime.executor")
    ExecutionTelemetry.record_group = tracer.wrap(
        ExecutionTelemetry.record_group, "runtime.telemetry"
    )
    Gateway.submit = tracer.wrap_submit(Gateway.submit, "gateway.submit")
    Gateway._prepare = tracer.wrap_stage(
        Gateway._prepare, "gateway.prepare", nest_of=lambda nest, *rest: nest
    )
    Gateway._execute_group = tracer.wrap_stage(
        Gateway._execute_group, "runtime.executor",
        nest_of=lambda job, group: job.analysis.nest,
    )


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #

def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = _union([
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.sid, ())
            if child.end > span.start and child.start < span.end
        ])
        result[span.sid] = span.seconds - covered
    return result


def nests_properly(spans: List[Span], root_start: float, root_end: float,
                   slack: float = 1e-6) -> bool:
    """Every span lies inside its parent, and siblings do not overlap."""
    by_id = {span.sid: span for span in spans}
    siblings: Dict[int, List[Span]] = {}
    for span in spans:
        parent = by_id.get(span.parent)
        low, high = (parent.start, parent.end) if parent else (root_start, root_end)
        if span.parent not in by_id and span.parent != 0:
            return False
        if span.start < low - slack or span.end > high + slack:
            return False
        siblings.setdefault(span.parent, []).append(span)
    for group in siblings.values():
        group.sort(key=lambda s: s.start)
        for before, after in zip(group, group[1:]):
            if after.start < before.end - slack:
                return False
    return True
