"""The cluster worker daemon: one node of the distributed serving tier.

``repro worker --listen HOST:PORT`` (or ``python -m repro.cluster.worker``)
runs one :class:`ClusterWorker`: a single asyncio server wrapping one
execution backend plus a small thread pool, executing the chunk groups the
:class:`~repro.cluster.client.ClusterScheduler` routes to it.

Programs are cached by their wire id — the canonical hash of the
transformed nest plus a digest of the plan spec — across requests, so a
warm program's requests carry only the id, the chunk indices and the store
arrays.  With ``--disk-cache`` the program cache gains a durable tier
(:class:`~repro.core.diskcache.DiskCache`, namespace ``programs``): a
restarted worker reloads known programs from disk instead of asking the
client to re-ship them, and stale entries from older builds are rejected
by the spec-version check, never misinterpreted.

Correctness never depends on the worker: every result it produces is the
same ``backend.execute_plan`` call the local executor would make (chunks
are pairwise independent, Lemma 1 / Theorem 2, so *where* a group runs can
not change a single cell), and a worker that dies mid-request is simply a
torn connection the client's failure ladder absorbs.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.diskcache import DiskCache
from repro.exceptions import ExecutionError, ReproError
from repro.runtime.backends import DEFAULT_BACKEND, resolve_backend

from repro.cluster import proto

__all__ = ["WorkerConfig", "ClusterWorker", "run_worker", "main"]

#: Distinct warm programs a worker keeps in memory; mirrors the client-side
#: program LRU so one steady traffic mix stays warm end to end.
_DEFAULT_MAX_PROGRAMS = 64


@dataclass
class WorkerConfig:
    """Everything one worker daemon needs."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed on startup
    backend: str = DEFAULT_BACKEND
    exec_workers: int = 2
    max_programs: int = _DEFAULT_MAX_PROGRAMS
    disk_cache: Optional[str] = None

    @staticmethod
    def parse_listen(listen: str) -> Tuple[str, int]:
        """``HOST:PORT`` → ``(host, port)`` (the only wire-address spelling)."""
        host, sep, port = listen.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"invalid --listen address {listen!r}; expected HOST:PORT"
            )
        return host, int(port)


@dataclass
class WorkerStats:
    """Counters of one worker daemon (reported via ping and on shutdown)."""

    requests: int = 0
    executed_groups: int = 0
    executed_iterations: int = 0
    execution_seconds: float = 0.0
    program_hits: int = 0
    programs_received: int = 0
    programs_from_disk: int = 0
    program_misses: int = 0
    execution_errors: int = 0
    internal_errors: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class ClusterWorker:
    """One serving node: asyncio frontend, thread-pool execution backend."""

    def __init__(self, config: Optional[WorkerConfig] = None, **overrides):
        self.config = config or WorkerConfig(**overrides)
        self.backend = resolve_backend(self.config.backend)
        self.stats = WorkerStats()
        self._programs: "OrderedDict[str, Tuple[object, object]]" = OrderedDict()
        self._lock = threading.Lock()
        self._disk: Optional[DiskCache] = (
            DiskCache(self.config.disk_cache, namespace="programs")
            if self.config.disk_cache
            else None
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, int(self.config.exec_workers)),
            thread_name_prefix="repro-cluster-exec",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------ #
    # program cache
    # ------------------------------------------------------------------ #
    def _remember(self, program_id: str, transformed, plan, persist: bool) -> None:
        with self._lock:
            self._programs[program_id] = (transformed, plan)
            self._programs.move_to_end(program_id)
            while len(self._programs) > self.config.max_programs:
                self._programs.popitem(last=False)
        if persist and self._disk is not None:
            self._disk.put(program_id, (transformed, plan))

    def _program_for(self, program_id: str):
        """Memory, then disk, then ``None`` (→ :class:`proto.NeedProgram`)."""
        with self._lock:
            entry = self._programs.get(program_id)
            if entry is not None:
                self._programs.move_to_end(program_id)
                self.stats.program_hits += 1
                return entry
        if self._disk is not None:
            loaded = self._disk.get(program_id)
            if (
                isinstance(loaded, tuple)
                and len(loaded) == 2
                and loaded[0] is not None
                and loaded[1] is not None
            ):
                self.stats.programs_from_disk += 1
                self._remember(program_id, loaded[0], loaded[1], persist=False)
                return loaded
        return None

    def programs_cached(self) -> int:
        with self._lock:
            return len(self._programs)

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _execute(self, request: proto.ExecuteRequest, transformed, plan):
        """Thread-pool body: run the group in place on the request's store.

        Identical to what the local executor's worker does — same backend
        call, same chunk enumeration from the same plan — so the response
        arrays are bit-identical to a local run of the same group.
        """
        self.backend.prepare_plan(transformed, plan)
        sizes = plan.chunk_sizes()
        # Prefer the backend's in-kernel parallel driver: the daemon's own
        # exec threads then stay free for protocol work while the group's
        # chunks run on native threads inside one call.  Backends without a
        # driver (or plans it cannot pack) keep the per-group call.
        use_driver = (
            len(request.chunk_indices) > 1
            and self.backend.parallel_plan_refusal(transformed, plan) is None
        )
        start = time.perf_counter()
        engine = None
        if use_driver:
            engine = self.backend.execute_plan_parallel(
                transformed,
                plan,
                request.store,
                chunk_indices=request.chunk_indices,
                threads=max(1, int(self.config.exec_workers)),
                dynamic=True,
            )
        if engine is None:
            self.backend.execute_plan(
                transformed, plan, request.store, chunk_indices=request.chunk_indices
            )
        elapsed = time.perf_counter() - start
        iterations = sum(sizes[i] for i in request.chunk_indices)
        return proto.ExecuteResponse(
            program=request.program,
            store=request.store,
            elapsed_seconds=elapsed,
            iterations=iterations,
        )

    async def _respond(self, request: proto.ExecuteRequest):
        self.stats.requests += 1
        if request.transformed is not None and request.plan is not None:
            self.stats.programs_received += 1
            self._remember(
                request.program, request.transformed, request.plan, persist=True
            )
            program = (request.transformed, request.plan)
        else:
            program = self._program_for(request.program)
        if program is None:
            self.stats.program_misses += 1
            return proto.NeedProgram(program=request.program)
        transformed, plan = program
        try:
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                self._pool, self._execute, request, transformed, plan
            )
        except ExecutionError as exc:
            # Deterministic loop-body failure: the client re-raises it,
            # exactly like a serial run would have.
            self.stats.execution_errors += 1
            return proto.ErrorResponse(
                kind="execution", message=str(exc), exc_type=type(exc).__name__
            )
        except Exception as exc:  # pragma: no cover - defensive
            self.stats.internal_errors += 1
            return proto.ErrorResponse(
                kind="internal", message=str(exc), exc_type=type(exc).__name__
            )
        self.stats.executed_groups += 1
        self.stats.executed_iterations += response.iterations
        self.stats.execution_seconds += response.elapsed_seconds
        return response

    def snapshot(self) -> dict:
        snapshot = self.stats.as_dict()
        snapshot["programs_cached"] = self.programs_cached()
        snapshot["backend"] = self.backend.name
        snapshot["protocol_version"] = proto.PROTOCOL_VERSION
        return snapshot

    async def _handle(self, reader, writer) -> None:
        """Serve one client connection: a sequential frame request loop."""
        try:
            while True:
                try:
                    message = await proto.read_message(reader)
                except ReproError as exc:
                    # Undecodable / oversized / version-mismatched frame:
                    # tell the peer why, then drop the connection — the
                    # stream position is no longer trustworthy.
                    await proto.write_message(
                        writer,
                        proto.ErrorResponse(
                            kind="internal",
                            message=str(exc),
                            exc_type=type(exc).__name__,
                        ),
                    )
                    break
                if message is None:
                    break
                if isinstance(message, proto.PingRequest):
                    await proto.write_message(
                        writer, proto.PongResponse(stats=self.snapshot())
                    )
                elif isinstance(message, proto.ExecuteRequest):
                    await proto.write_message(writer, await self._respond(message))
                else:
                    await proto.write_message(
                        writer,
                        proto.ErrorResponse(
                            kind="internal",
                            message=f"unsupported message {type(message).__name__}",
                        ),
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # torn connection: the client's failure ladder handles it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> asyncio.AbstractServer:
        """Bind and start serving; resolves :attr:`address` (real port)."""
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self._server

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown(wait=False)

    async def serve_forever(self) -> None:
        server = await self.start()
        host, port = self.address
        # The startup line is the daemon's contract with its launcher:
        # `--listen HOST:0` picks an ephemeral port and this line is how
        # the launcher (tests, CI, the benchmark) learns which one.
        print(f"repro worker listening on {host}:{port}", flush=True)
        async with server:
            await server.serve_forever()


def run_worker(config: WorkerConfig) -> int:
    """Run one worker daemon until interrupted."""
    worker = ClusterWorker(config)
    try:
        asyncio.run(worker.serve_forever())
    except KeyboardInterrupt:
        print("repro worker: interrupted, shutting down", file=sys.stderr)
    return 0


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.cluster.worker`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-cluster-worker",
        description="Run one repro cluster worker daemon.",
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="HOST:PORT to bind (port 0 picks an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--backend", default=DEFAULT_BACKEND, help="execution backend name"
    )
    parser.add_argument(
        "--exec-workers", type=int, default=2,
        help="concurrent chunk groups executed by this worker",
    )
    parser.add_argument(
        "--max-programs", type=int, default=_DEFAULT_MAX_PROGRAMS,
        help="warm programs kept in memory",
    )
    parser.add_argument(
        "--disk-cache", default=None, metavar="DIR",
        help="persist programs to DIR so restarts skip program re-shipping",
    )
    args = parser.parse_args(argv)
    host, port = WorkerConfig.parse_listen(args.listen)
    return run_worker(
        WorkerConfig(
            host=host,
            port=port,
            backend=args.backend,
            exec_workers=args.exec_workers,
            max_programs=args.max_programs,
            disk_cache=args.disk_cache,
        )
    )


if __name__ == "__main__":  # pragma: no cover - process entry point
    sys.exit(main())
