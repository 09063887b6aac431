"""Persistent worker pool executing plan chunks in shared memory.

The pool is the runtime half of the zero-copy design in
:mod:`repro.runtime.shared`: long-lived worker processes attach to the
published store segments **once per store generation** and execute their
chunk groups in place, so a steady stream of executions pays neither
fork-per-call nor store pickling nor a write-merge loop.

What crosses the process boundary, and when:

* a **program** — the transformed nest, the backend instance and the
  *symbolic* :class:`~repro.plan.ExecutionPlan` — is sent to each worker
  *once* and cached there under a token.  The plan pickles to a few hundred
  bytes regardless of problem size; workers re-derive their chunks'
  iterations from its bounds in place, so **no iteration data ever crosses
  the process boundary** (the pre-plan design published the packed
  iteration matrix through shared-memory segments — for example 4.1 at
  N=64 that was 16641 materialized iterations; now it is nothing at all);
* a **run task** is a tiny message ``(job id, program token, store spec,
  chunk indices)`` — workers enumerate the chunks at those schedule
  positions lazily;
* a **result** is ``(job id, group index, elapsed seconds, engine)`` — the
  worker-measured wall clock of the group's execution, which feeds the
  executor's :class:`~repro.runtime.telemetry.ExecutionTelemetry`, and the
  engine that ran it (e.g. ``"native-cc"``) — or the exception's type name
  and text plus the traceback when the group failed.

Failure semantics: a worker that *reports* an exception makes
:meth:`WorkerPool.run_job` raise the type a serial run raises.  The loop's
arithmetic errors — ``ZeroDivisionError``, ``ValueError`` and
``OverflowError``, the types the native kernels' status codes map to —
are re-raised as themselves; anything else (a window violation, a missing
array, ...) raises :class:`~repro.exceptions.ExecutionError`.  Either way
the message names the failing group and carries the worker's traceback.
A worker that *dies* (crash, kill) raises :class:`WorkerCrashed`; the
executor treats that as an infrastructure failure, discards the pool and
falls back to serial execution on the parent's (untouched) store.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import time
import traceback
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ExecutionError
from repro.plan import ExecutionPlan
from repro.runtime.shared import SharedArrayStore, SharedStoreSpec

__all__ = ["WorkerCrashed", "WorkerPool"]

# Workers keep at most this many cached store attachments; the oldest entry
# is evicted (and its segments detached) beyond the cap.  Program caches are
# bounded by the parent instead (see _PARENT_PROGRAM_CACHE): the parent
# sends an explicit "forget" when it evicts, so the two sides can never
# disagree about which programs a worker still holds.
_WORKER_STORE_CACHE = 4
_PARENT_PROGRAM_CACHE = 16
#: How often an idle pool worker checks that its parent is still alive.
_PARENT_POLL_SECONDS = 1.0

#: Worker-reported exceptions re-raised as their own type, matched by exact
#: type name (a ``ValueError`` subclass such as a ``ReproError`` is not one
#: of them); every other reported type becomes an ``ExecutionError``.
_LOOP_ERRORS = {
    error.__name__: error for error in (ZeroDivisionError, ValueError, OverflowError)
}


class WorkerCrashed(ExecutionError):
    """A pool worker died without reporting a result."""


class _WorkerProgram:
    """A worker's cached view of one registered program."""

    def __init__(self, transformed, backend, plan: ExecutionPlan):
        self.transformed = transformed
        self.backend = backend
        self.plan = plan

    def execute(self, store, chunk_indices: Tuple[int, ...]) -> str:
        """Execute one group's chunks in place, enumerated from the plan;
        returns the engine that ran them.

        Deliberately *not* routed through the backend's in-kernel parallel
        driver: shared-mode pools already run one worker process per core,
        so a multithreaded driver inside each worker would oversubscribe
        the host.  In-process ``native-parallel`` runs, through
        ``Session.run`` or the gateway, are where the driver wins.
        """
        return self.backend.execute_plan(
            self.transformed, self.plan, store, chunk_indices=chunk_indices
        )

    def close(self) -> None:
        self.plan = None


def _worker_main(worker_index: int, task_queue, result_queue) -> None:
    """Worker loop: cache programs and store attachments, execute in place.

    An idle worker checks every :data:`_PARENT_POLL_SECONDS` that its
    parent is alive, and exits once it is not: a parent killed without a
    chance to stop its pool leaves no worker behind.
    """
    parent = os.getppid()
    programs: "OrderedDict[str, _WorkerProgram]" = OrderedDict()
    stores: "OrderedDict[str, SharedArrayStore]" = OrderedDict()
    while True:
        try:
            message = task_queue.get(timeout=_PARENT_POLL_SECONDS)
        except queue_module.Empty:
            if os.getppid() != parent:  # re-parented: the pool's process is gone
                break
            continue
        kind = message[0]
        if kind == "stop":
            break
        if kind == "program":
            _, token, transformed, backend, plan = message
            try:
                programs[token] = _WorkerProgram(transformed, backend, plan)
            except BaseException as exc:  # report at the next run task
                result_queue.put(
                    ("error", -1, -1,
                     (type(exc).__name__, f"program registration failed: {exc!r}"),
                     traceback.format_exc())
                )
            continue
        if kind == "forget":
            program = programs.pop(message[1], None)
            if program is not None:
                program.close()
            continue
        # kind == "run"
        _, job_id, group_index, token, store_spec, chunk_indices = message
        try:
            program = programs[token]
            store = stores.get(store_spec.token)
            if store is None:
                store = SharedArrayStore.attach(store_spec)
                stores[store_spec.token] = store
            # The current spec sits at the MRU end, so eviction can never
            # close the segment this very message is about to use.
            stores.move_to_end(store_spec.token)
            while len(stores) > _WORKER_STORE_CACHE:
                stores.popitem(last=False)[1].close()
            start = time.perf_counter()
            engine = program.execute(store, chunk_indices)
            elapsed = time.perf_counter() - start
            result_queue.put(("done", job_id, group_index, elapsed, engine))
        except BaseException as exc:
            result_queue.put(
                ("error", job_id, group_index, (type(exc).__name__, str(exc)),
                 traceback.format_exc())
            )
    for program in programs.values():
        program.close()
    for store in stores.values():
        store.close()


class _Program:
    """Parent-side registration of one (transformed, backend, plan) triple."""

    def __init__(self, token: str, payload):
        self.token = token
        self.payload = payload  # (transformed, backend, plan) pins the key ids


class WorkerPool:
    """A fixed set of long-lived worker processes bound to shared segments.

    Workers are spawned lazily on first use.  Groups are dispatched on
    per-worker queues (group ``g`` goes to worker ``g % workers``), which
    keeps the parent's knowledge of each worker's program cache exact.
    """

    def __init__(self, workers: int = 4, context: Optional[str] = None):
        self.workers = max(1, int(workers))
        self._ctx = multiprocessing.get_context(context)
        self._processes: List = []
        self._task_queues: List = []
        self._result_queue = None
        self._programs: "OrderedDict[Tuple[int, int, int], _Program]" = OrderedDict()
        self._seen: List[set] = []
        self._tokens = itertools.count()
        self._jobs = itertools.count()
        self._closed = False
        self._finalizer = None

    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return bool(self._processes)

    def alive_workers(self) -> int:
        return sum(1 for process in self._processes if process.is_alive())

    def start(self) -> None:
        if self._processes or self._closed:
            return
        # Make sure the parent's resource tracker exists *before* the workers
        # fork: children then inherit it, every segment registration lands in
        # the one shared tracker (a set, so attach-side re-registration is a
        # no-op) and worker exit can never spuriously "clean up" segments the
        # parent still owns.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform without the tracker
            pass
        self._result_queue = self._ctx.Queue()
        for index in range(self.workers):
            task_queue = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_main,
                args=(index, task_queue, self._result_queue),
                daemon=True,
                name=f"repro-pool-{index}",
            )
            process.start()
            self._task_queues.append(task_queue)
            self._processes.append(process)
            self._seen.append(set())
        self._finalizer = weakref.finalize(self, _terminate, list(self._processes))

    # ------------------------------------------------------------------ #
    def _ensure_program(self, transformed, backend, plan: ExecutionPlan) -> _Program:
        key = (id(transformed), id(backend), id(plan))
        program = self._programs.get(key)
        if program is not None:
            self._programs.move_to_end(key)
            return program
        program = _Program(
            token=f"program-{next(self._tokens)}",
            # Strong references pin the ids in ``key`` for the pool's life.
            payload=(transformed, backend, plan),
        )
        self._programs[key] = program
        while len(self._programs) > _PARENT_PROGRAM_CACHE:
            _, evicted = self._programs.popitem(last=False)
            # Tell every worker that cached the program to drop it; run_job
            # is synchronous, so no task referencing it can be in flight.
            for worker, seen in enumerate(self._seen):
                if evicted.token in seen:
                    seen.discard(evicted.token)
                    self._task_queues[worker].put(("forget", evicted.token))
        return program

    def run_job(
        self,
        transformed,
        backend,
        plan: ExecutionPlan,
        store_spec: SharedStoreSpec,
        groups: Sequence[Tuple[int, ...]],
    ) -> Dict[int, Tuple[float, str]]:
        """Execute ``groups`` (tuples of chunk indices) on the shared store.

        ``plan`` is the nest's :class:`~repro.plan.ExecutionPlan`, pickled
        to each worker once per program.  Blocks until every group finished
        and returns, per group index, the worker-measured wall clock of the
        group (the raw material of the executor's telemetry) and the engine
        that ran it.
        A worker-reported failure raises the loop's own
        ``ZeroDivisionError``, ``ValueError`` or ``OverflowError``, or
        ``ExecutionError`` for any other type; :class:`WorkerCrashed` means
        a worker died, after which the pool must be discarded (``close``).
        """
        if self._closed:
            raise ExecutionError("worker pool is closed")
        if not groups:
            return {}
        self.start()
        program = self._ensure_program(transformed, backend, plan)
        job_id = next(self._jobs)
        transformed_payload, backend_payload, plan_payload = program.payload
        for group_index, chunk_indices in enumerate(groups):
            worker = group_index % self.workers
            if program.token not in self._seen[worker]:
                self._task_queues[worker].put(
                    ("program", program.token, transformed_payload, backend_payload,
                     plan_payload)
                )
                self._seen[worker].add(program.token)
            self._task_queues[worker].put(
                ("run", job_id, group_index, program.token, store_spec,
                 tuple(int(i) for i in chunk_indices))
            )
        pending = set(range(len(groups)))
        outcomes: Dict[int, Tuple[float, str]] = {}
        first_error = None
        while pending:
            try:
                message = self._result_queue.get(timeout=0.25)
            except queue_module.Empty:
                dead = [p.name for p in self._processes if not p.is_alive()]
                if dead:
                    raise WorkerCrashed(
                        f"worker(s) {', '.join(dead)} died with "
                        f"{len(pending)} group(s) outstanding"
                    ) from None
                continue
            # ``payload`` is the measured seconds on "done" and the error's
            # (type name, text) on "error"; ``detail`` is the engine or the
            # traceback.
            kind, message_job, group_index, payload, detail = message
            if message_job != job_id:
                continue  # stale result from an earlier job
            pending.discard(group_index)
            # On error, keep draining until every group of this job reported:
            # raising with stragglers still writing would let a later run
            # reuse the segments while old results trickle in.
            if kind == "error":
                if first_error is None:
                    first_error = (group_index, payload, detail)
            else:
                outcomes[group_index] = (float(payload), detail)
        if first_error is not None:
            group_index, (name, text), trace = first_error
            raise _LOOP_ERRORS.get(name, ExecutionError)(
                f"group {group_index} failed in the worker pool: {name}: {text}\n{trace}"
            )
        return outcomes

    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 2.0) -> None:
        """Stop the workers and drop every registered program."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=timeout)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
        self._programs.clear()
        for task_queue in self._task_queues:
            try:
                task_queue.close()
            except (OSError, ValueError):
                pass
        if self._result_queue is not None:
            try:
                self._result_queue.close()
            except (OSError, ValueError):
                pass
        if self._finalizer is not None:
            self._finalizer.detach()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close(timeout=0.2)
        except Exception:
            pass


def _terminate(processes) -> None:  # pragma: no cover - interpreter shutdown path
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:
            pass
