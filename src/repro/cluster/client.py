"""The cluster scheduler: route chunk groups of a plan to worker nodes.

:class:`ClusterScheduler` is to a set of worker daemons what
:class:`~repro.runtime.executor.ParallelExecutor` is to a process pool: it
splits a plan's chunks into balanced groups and executes them concurrently
— except the "workers" are remote hosts and the dispatch payload is the
wire format of :mod:`repro.cluster.proto`.

Three properties carry the design:

* **Affinity.**  Programs are routed by the consistent-hash ring
  (:class:`HashRing`) over the *canonical* hash of the nest, so one
  program's traffic always lands on the same small set of nodes — the
  nodes that already hold the warm program (and, for the native backend,
  the compiled kernel).  Adding or removing a node remaps only the keys
  adjacent to its ring points, not the whole key space.
* **Balance.**  Groups are split by weighted LPT: chunk weights are the
  measured per-chunk costs when the program's telemetry is warm (the
  same :class:`~repro.runtime.telemetry.ExecutionTelemetry` feedback the
  local pool uses), and each node's capacity is its measured throughput
  EWMA — a node twice as fast receives twice the work, so heterogeneous
  clusters don't convoy on their slowest member.
* **The failure ladder.**  Every request has a timeout; a failed or timed
  out group is retried on a *different* ring node (bounded by
  ``retries``); when every candidate is down the group executes on the
  local backend.  All three rungs run the identical
  ``backend.execute_plan`` over the identical chunk indices, so responses
  are bit-identical no matter which rung served them.  Only deterministic
  loop-body errors (:class:`~repro.exceptions.ExecutionError`) skip the
  ladder: they would fail identically everywhere, so they surface
  immediately, exactly like a serial run.

Merging diffs against a pristine copy, vectorized: a worker returns its
group's full final arrays, the client masks them against a pristine copy and writes only the changed cells into
the caller's store.  Chunks of a legal schedule never write a common cell
(Lemma 1 / Theorem 2), so concurrent group merges touch disjoint elements
and the merge is order-independent.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import pickle
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ClusterError, ExecutionError, WorkloadError
from repro.loopnest.canonical import canonical_hash
from repro.runtime.arrays import ArrayStore
from repro.runtime.backends import DEFAULT_BACKEND, resolve_backend
from repro.runtime.executor import ExecutionResult
from repro.runtime.telemetry import ExecutionTelemetry

from repro.cluster import proto

__all__ = ["ClusterConfig", "ClusterStats", "HashRing", "ClusterScheduler"]

#: EWMA smoothing of a node's measured throughput; matches the telemetry
#: module's convention (recent behavior dominates, noise is damped).
_NODE_ALPHA = 0.4


def _payload_store(store: ArrayStore, transformed) -> ArrayStore:
    """Only the arrays the nest references, deep-copied for one payload.

    A worker only reads and writes the arrays its nest touches, so shipping
    the whole store would pay for arrays it never uses.  Arrays the nest
    references but the store lacks are simply left out: the worker then
    raises the same "not defined in the store" error a serial run would.
    """
    referenced = set(transformed.nest.array_names())
    subset = ArrayStore()
    for name in referenced:
        if name in store:
            subset[name] = store[name].copy()
    return subset


@dataclass(frozen=True)
class ClusterConfig:
    """Wiring of one cluster client.

    ``nodes`` are ``HOST:PORT`` strings; ``fanout`` caps how many ring
    nodes one program's groups spread over (0 = all nodes); ``retries`` is
    how many *additional* nodes a failed group may try before falling back
    to local execution; ``cooldown`` is how long a failed node is skipped
    before being probed again.
    """

    nodes: Tuple[str, ...] = ()
    fanout: int = 0
    timeout: float = 30.0
    connect_timeout: float = 5.0
    retries: int = 1
    cooldown: float = 2.0
    virtual_nodes: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(str(node) for node in self.nodes))
        if not self.nodes:
            raise WorkloadError("a cluster needs at least one node (HOST:PORT)")
        for node in self.nodes:
            host, sep, port = node.rpartition(":")
            if not sep or not host or not port.isdigit():
                raise WorkloadError(
                    f"invalid cluster node {node!r}; expected HOST:PORT"
                )
        if self.fanout < 0:
            raise WorkloadError(f"fanout must be >= 0, got {self.fanout}")
        if self.timeout <= 0 or self.connect_timeout <= 0:
            raise WorkloadError("timeouts must be positive")
        if self.retries < 0:
            raise WorkloadError(f"retries must be >= 0, got {self.retries}")
        if self.virtual_nodes < 1:
            raise WorkloadError(
                f"virtual_nodes must be >= 1, got {self.virtual_nodes}"
            )


@dataclass
class ClusterStats:
    """Counters of one scheduler (cumulative across jobs)."""

    jobs: int = 0
    remote_groups: int = 0
    local_fallbacks: int = 0
    retries: int = 0
    programs_shipped: int = 0
    node_failures: int = 0
    execution_errors: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    def describe(self) -> str:
        return (
            f"{self.jobs} job(s), {self.remote_groups} remote group(s), "
            f"{self.retries} retrie(s), {self.local_fallbacks} local "
            f"fallback(s), {self.programs_shipped} program(s) shipped"
        )


class HashRing:
    """Consistent hashing of string keys onto nodes.

    Each node owns ``virtual_nodes`` pseudo-random points on a ring; a key
    maps to the first point clockwise of its own hash.  :meth:`nodes_for`
    walks the ring from there, yielding each distinct node once — the
    natural replica/failover order, stable under membership changes except
    for the keys adjacent to the changed node's points.
    """

    def __init__(self, nodes: Sequence[str], virtual_nodes: int = 64):
        points: List[Tuple[int, str]] = []
        for node in nodes:
            for replica in range(virtual_nodes):
                token = hashlib.md5(f"{node}#{replica}".encode("utf-8")).hexdigest()
                points.append((int(token, 16), node))
        points.sort()
        self._points = points
        self._hashes = [point[0] for point in points]
        self._nodes = tuple(dict.fromkeys(nodes))

    @property
    def nodes(self) -> Tuple[str, ...]:
        return self._nodes

    def nodes_for(self, key: str, count: Optional[int] = None) -> List[str]:
        """Distinct nodes in ring order starting at ``key``'s position."""
        if not self._points:
            return []
        limit = len(self._nodes) if count is None or count <= 0 else count
        start = bisect.bisect_left(
            self._hashes, int(hashlib.md5(key.encode("utf-8")).hexdigest(), 16)
        )
        ordered: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node not in seen:
                seen.add(node)
                ordered.append(node)
                if len(ordered) >= limit:
                    break
        return ordered


class _NodeState:
    """One worker node as seen by the scheduler: connection + health + speed."""

    def __init__(self, address: str):
        self.address = address
        host, _, port = address.rpartition(":")
        self.host = host
        self.port = int(port)
        self.lock = threading.Lock()
        self.sock: Optional[socket.socket] = None
        self.down_until = 0.0
        #: EWMA of measured seconds per iteration (client wall clock, so
        #: network cost is priced in); 0.0 until the first observation.
        self.rate = 0.0

    def up(self, now: float) -> bool:
        return now >= self.down_until

    def mark_down(self, cooldown: float) -> None:
        self.down_until = time.monotonic() + cooldown
        self.close()

    def observe(self, seconds: float, iterations: int) -> None:
        if iterations <= 0:
            return
        sample = seconds / iterations
        self.rate = sample if self.rate == 0.0 else (
            _NODE_ALPHA * sample + (1.0 - _NODE_ALPHA) * self.rate
        )

    def connect(self, connect_timeout: float) -> socket.socket:
        if self.sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=connect_timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock = sock
        return self.sock

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class ClusterScheduler:
    """Schedule plan chunk groups onto a set of worker daemons.

    ``backend`` is the *local* backend used for the fallback rung (and for
    naming the result); ``telemetry`` optionally shares the executor's
    per-chunk cost store so cluster runs both use and feed the same
    measurements as local runs.
    """

    def __init__(
        self,
        config: ClusterConfig,
        backend=DEFAULT_BACKEND,
        telemetry: Optional[ExecutionTelemetry] = None,
    ):
        self.config = config
        self.backend = resolve_backend(backend)
        self.telemetry = telemetry if telemetry is not None else ExecutionTelemetry()
        self.ring = HashRing(config.nodes, virtual_nodes=config.virtual_nodes)
        self.stats = ClusterStats()
        self._states: Dict[str, _NodeState] = {
            node: _NodeState(node) for node in self.ring.nodes
        }
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, 2 * len(self.ring.nodes)),
            thread_name_prefix="repro-cluster-client",
        )
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # identity and routing
    # ------------------------------------------------------------------ #
    @staticmethod
    def program_id_for(transformed, plan) -> Tuple[str, str]:
        """``(program_id, routing_key)`` of one executable program.

        The routing key is the bare canonical hash — name-blind, so
        renamed copies of one program co-locate on the nodes whose native
        kernels are already warm.  The program id additionally digests the
        concrete (named) program text and the plan spec, because the
        executable a worker caches must reproduce the exact arrays and
        chunk order of *this* request.  The id is memoized on the plan
        object: session program caches keep plans alive across requests,
        so a warm program pays no pickling here.
        """
        digest = canonical_hash(transformed.nest)
        cached = getattr(plan, "_cluster_wire_id", None)
        if cached is not None and cached[0] == digest:
            return cached[1], digest
        spec = hashlib.sha256(
            pickle.dumps((str(transformed.nest), plan))
        ).hexdigest()[:16]
        program_id = f"{digest}:{spec}"
        try:
            plan._cluster_wire_id = (digest, program_id)
        except Exception:  # pragma: no cover - exotic plan types
            pass
        return program_id, digest

    def _candidates(self, routing_key: str) -> List[str]:
        """Ring-ordered fanout nodes, live ones first (order preserved)."""
        ordered = self.ring.nodes_for(routing_key, self.config.fanout)
        now = time.monotonic()
        live = [node for node in ordered if self._states[node].up(now)]
        down = [node for node in ordered if not self._states[node].up(now)]
        return live + down

    def _speed(self, node: str) -> float:
        """Relative node capacity (higher = faster), 1.0 when unmeasured."""
        rates = [s.rate for s in self._states.values() if s.rate > 0.0]
        state = self._states[node]
        if state.rate <= 0.0:
            # Unmeasured node: assume the cluster median so a cold node is
            # neither starved nor convoyed on.
            if not rates:
                return 1.0
            rates.sort()
            return 1.0 / rates[len(rates) // 2]
        return 1.0 / state.rate

    def _node_groups(
        self,
        chunk_sizes: Sequence[int],
        nodes: Sequence[str],
        telemetry_key: Optional[str],
    ) -> List[Tuple[str, Tuple[int, ...]]]:
        """Weighted LPT over heterogeneous nodes.

        Chunk weights are measured costs when telemetry is warm (else the
        closed-form sizes); a group's finish time is its load divided by
        its node's measured speed, and every chunk goes to the group that
        would finish it earliest.  Deterministic: ties break on chunk then
        node order.
        """
        costs = (
            self.telemetry.chunk_costs(telemetry_key, chunk_sizes)
            if telemetry_key is not None
            else None
        )
        weights: Sequence[float] = costs if costs is not None else chunk_sizes
        live = list(nodes[: max(1, min(len(nodes), len(chunk_sizes)))])
        speeds = [self._speed(node) for node in live]
        order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
        heap: List[Tuple[float, int]] = [(0.0, g) for g in range(len(live))]
        heapq.heapify(heap)
        groups: List[List[int]] = [[] for _ in live]
        for index in order:
            load, lightest = heapq.heappop(heap)
            groups[lightest].append(index)
            heapq.heappush(
                heap, (load + float(weights[index]) / speeds[lightest], lightest)
            )
        return [
            (live[g], tuple(group)) for g, group in enumerate(groups) if group
        ]

    # ------------------------------------------------------------------ #
    # the wire
    # ------------------------------------------------------------------ #
    def _roundtrip(self, state: _NodeState, message) -> object:
        sock = state.connect(self.config.connect_timeout)
        sock.settimeout(self.config.timeout)
        proto.send_message(sock, message)
        return proto.recv_message(sock)

    def _request_execute(
        self,
        node: str,
        program_id: str,
        routing_key: str,
        group: Tuple[int, ...],
        payload: ArrayStore,
        transformed,
        plan,
    ) -> proto.ExecuteResponse:
        """One node attempt: hash-only first, program attached on demand."""
        state = self._states[node]
        request = proto.ExecuteRequest(
            program=program_id,
            routing=routing_key,
            chunk_indices=group,
            store=payload,
        )
        with state.lock:
            try:
                response = self._roundtrip(state, request)
                if isinstance(response, proto.NeedProgram):
                    # Cold worker: re-send with the program attached — a
                    # few hundred bytes of plan plus the transformed nest,
                    # paid once per (program, node), ever.
                    with self._lock:
                        self.stats.programs_shipped += 1
                    request.transformed = transformed
                    request.plan = plan
                    response = self._roundtrip(state, request)
            except Exception:
                # Socket state is unknown mid-conversation: reconnect next
                # time rather than desynchronize the frame stream.
                state.close()
                raise
        if isinstance(response, proto.ErrorResponse):
            if response.kind == "execution":
                raise ExecutionError(response.message)
            raise ClusterError(
                f"node {node} failed: [{response.exc_type}] {response.message}"
            )
        if not isinstance(response, proto.ExecuteResponse):
            raise ClusterError(
                f"node {node} sent unexpected {type(response).__name__}"
            )
        return response

    def _run_group(
        self,
        program_id: str,
        routing_key: str,
        transformed,
        plan,
        group: Tuple[int, ...],
        payload: ArrayStore,
        preferred: str,
        telemetry_key: Optional[str],
        chunk_sizes: Sequence[int],
    ) -> Tuple[ArrayStore, ArrayStore, str]:
        """Execute one group through the failure ladder.

        Returns ``(executed_store, pristine_store, where)`` — the caller
        diffs the two and merges.  ``where`` names the serving node, or
        ``"local"`` for the fallback rung.
        """
        pristine = payload.copy()
        group_iterations = sum(chunk_sizes[i] for i in group)
        ladder = [preferred] + [
            node for node in self._candidates(routing_key) if node != preferred
        ]
        attempts = 0
        for node in ladder:
            if attempts > self.config.retries:
                break
            state = self._states[node]
            if attempts and not state.up(time.monotonic()):
                continue  # a known-down node is no use as a *retry* target
            attempts += 1
            start = time.perf_counter()
            try:
                response = self._request_execute(
                    node, program_id, routing_key, group, payload, transformed, plan
                )
            except ExecutionError:
                # Deterministic loop-body failure: every rung would fail
                # identically, so surface it like a serial run.
                with self._lock:
                    self.stats.execution_errors += 1
                raise
            except Exception:
                state.mark_down(self.config.cooldown)
                with self._lock:
                    self.stats.node_failures += 1
                    if attempts > 1:
                        self.stats.retries += 1
                continue
            wall = time.perf_counter() - start
            state.observe(wall, group_iterations)
            with self._lock:
                self.stats.remote_groups += 1
                if attempts > 1:
                    self.stats.retries += 1
            if telemetry_key is not None:
                self.telemetry.record_group(
                    telemetry_key,
                    group,
                    [chunk_sizes[i] for i in group],
                    response.elapsed_seconds,
                )
            return response.store, pristine, node
        # Bottom rung: every candidate failed or is down — execute the
        # group locally on the private payload copy.  Same backend call,
        # same chunk indices: bit-identical to the remote path.
        with self._lock:
            self.stats.local_fallbacks += 1
        start = time.perf_counter()
        self.backend.execute_plan(transformed, plan, payload, chunk_indices=group)
        elapsed = time.perf_counter() - start
        if telemetry_key is not None:
            self.telemetry.record_group(
                telemetry_key, group, [chunk_sizes[i] for i in group], elapsed
            )
        return payload, pristine, "local"

    # ------------------------------------------------------------------ #
    # the surface
    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge(store: ArrayStore, executed: ArrayStore, pristine: ArrayStore) -> None:
        """Write the group's changed cells into the caller's store.

        Chunks never write a common cell, so concurrent merges of a job's
        groups touch disjoint elements and commute; a write that left a
        cell's value unchanged is indistinguishable from no write and
        equally harmless to skip.
        """
        for name, array in executed.items():
            mask = array.data != pristine[name].data
            if mask.any():
                store[name].data[mask] = array.data[mask]

    def run(
        self,
        transformed,
        plan,
        store: ArrayStore,
        telemetry_key: Optional[str] = None,
    ) -> ExecutionResult:
        """Execute a whole plan across the cluster, merging into ``store``."""
        if self._closed:
            raise ClusterError("the cluster scheduler is closed")
        setup_start = time.perf_counter()
        program_id, routing_key = self.program_id_for(transformed, plan)
        chunk_sizes = tuple(plan.chunk_sizes())
        with self._lock:
            self.stats.jobs += 1
        if not chunk_sizes:
            return ExecutionResult(
                store=store,
                mode="cluster",
                workers=0,
                num_chunks=0,
                elapsed_seconds=0.0,
                chunk_sizes=(),
                backend=self.backend.name,
            )
        nodes = self._candidates(routing_key)
        assignment = self._node_groups(chunk_sizes, nodes, telemetry_key)
        payloads = [
            _payload_store(store, transformed) for _ in assignment
        ]
        setup = time.perf_counter() - setup_start
        start = time.perf_counter()
        futures = [
            self._pool.submit(
                self._run_group,
                program_id,
                routing_key,
                transformed,
                plan,
                group,
                payload,
                node,
                telemetry_key,
                chunk_sizes,
            )
            for (node, group), payload in zip(assignment, payloads)
        ]
        outcomes = [future.result() for future in futures]
        fallback: Optional[str] = None
        for executed, pristine, where in outcomes:
            self._merge(store, executed, pristine)
            if where == "local":
                fallback = "cluster→local"
        elapsed = time.perf_counter() - start
        return ExecutionResult(
            store=store,
            mode="cluster",
            workers=len(assignment),
            num_chunks=len(chunk_sizes),
            elapsed_seconds=elapsed,
            chunk_sizes=chunk_sizes,
            backend=self.backend.name,
            setup_seconds=setup,
            fallback=fallback,
        )

    def execute_group(
        self,
        transformed,
        plan,
        store: ArrayStore,
        group: Sequence[int],
        telemetry_key: Optional[str] = None,
    ) -> str:
        """Execute one already-formed chunk group (the gateway's unit).

        The gateway balances groups itself; this routes a single group
        through the same ladder and merges it into ``store``.  Concurrent
        calls for disjoint groups of one job are safe for the same reason
        the in-place pool is.  Returns where the group ran (node address
        or ``"local"``).
        """
        if self._closed:
            raise ClusterError("the cluster scheduler is closed")
        program_id, routing_key = self.program_id_for(transformed, plan)
        chunk_sizes = tuple(plan.chunk_sizes())
        group = tuple(int(i) for i in group)
        candidates = self._candidates(routing_key)
        # Spread a job's concurrent groups over the fanout: group i prefers
        # candidate i mod n, so the gateway's parallel groups of one
        # program land on different nodes while staying inside its fanout.
        preferred = candidates[(group[0] if group else 0) % len(candidates)]
        payload = _payload_store(store, transformed)
        executed, pristine, where = self._run_group(
            program_id,
            routing_key,
            transformed,
            plan,
            group,
            payload,
            preferred,
            telemetry_key,
            chunk_sizes,
        )
        self._merge(store, executed, pristine)
        return where

    # ------------------------------------------------------------------ #
    # health and lifecycle
    # ------------------------------------------------------------------ #
    def ping(self, node: str) -> Optional[dict]:
        """The node's stats snapshot, or ``None`` when it is unreachable."""
        state = self._states[node]
        try:
            with state.lock:
                response = self._roundtrip(state, proto.PingRequest())
        except Exception:
            state.close()
            return None
        if isinstance(response, proto.PongResponse):
            return response.stats
        return None

    def ping_all(self) -> Dict[str, Optional[dict]]:
        return {node: self.ping(node) for node in self.ring.nodes}

    def node_snapshot(self) -> List[dict]:
        now = time.monotonic()
        return [
            {
                "node": state.address,
                "up": state.up(now),
                "rate_ewma": state.rate,
            }
            for state in self._states.values()
        ]

    def describe(self) -> str:
        return (
            f"cluster of {len(self.ring.nodes)} node(s): " + self.stats.describe()
        )

    def close(self) -> None:
        """Close every connection and the dispatch pool; idempotent."""
        self._closed = True
        for state in self._states.values():
            with state.lock:
                state.close()
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "ClusterScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
