"""The async serving gateway: admission, backpressure, drain, parity.

The acceptance contracts pinned here:

* **bit-identical results** — a job served through the gateway produces
  exactly the store (and checksum) ``Session.run`` produces for the same
  source, because only the grouping/scheduling of chunks differs;
* **bounded-queue backpressure** — at the admission bound, ``wait=False``
  submissions are rejected with :class:`GatewayOverloaded` carrying queue
  stats, ``wait=True`` submissions park and complete later, and neither
  path deadlocks (every await below runs under a timeout);
* **clean drain** — ``aclose`` (and the async context manager) finishes
  every admitted job before stopping the workers, and the gateway rejects
  new work afterwards.

No pytest-asyncio in the environment: each test drives its own event loop
through ``asyncio.run``.
"""

import asyncio

import numpy as np
import pytest

from repro.api import Session
from repro.codegen import native as native_codegen
from repro.exceptions import ExecutionError, GatewayOverloaded, WorkloadError
from repro.gateway import Gateway, GatewayConfig, GatewayStats, serve
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.synthetic import variable_distance_loop

TIMEOUT = 30.0


def run_async(coro):
    """Drive one coroutine with a global deadline (deadlock insurance)."""

    async def _bounded():
        return await asyncio.wait_for(coro, timeout=TIMEOUT)

    return asyncio.run(_bounded())


# --------------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------------- #
class TestGatewayConfig:
    def test_defaults(self):
        config = GatewayConfig()
        assert config.max_pending >= 1
        assert config.queue_depth >= 1

    @pytest.mark.parametrize(
        "field", ["max_pending", "queue_depth", "analysis_workers", "exec_workers"]
    )
    def test_rejects_non_positive(self, field):
        with pytest.raises(WorkloadError):
            GatewayConfig(**{field: 0})

    def test_keyword_overrides(self):
        with Session() as session:
            gateway = Gateway(session, max_pending=3)
            assert gateway.config.max_pending == 3

    def test_config_plus_overrides(self):
        with Session() as session:
            gateway = Gateway(
                session, config=GatewayConfig(max_pending=5), exec_workers=2
            )
            assert (gateway.config.max_pending, gateway.config.exec_workers) == (5, 2)


# --------------------------------------------------------------------------- #
# result parity
# --------------------------------------------------------------------------- #
class TestResultParity:
    @pytest.mark.parametrize(
        "make_nest", [lambda: example_4_1(8), lambda: variable_distance_loop(8)]
    )
    def test_bit_identical_to_session_run(self, make_nest):
        nest = make_nest()
        with Session(backend="compiled") as session:
            expected = session.run(nest)

            async def main():
                async with Gateway(session, exec_workers=3) as gateway:
                    return await gateway.submit(nest)

            actual = run_async(main())
        assert actual.checksum == expected.checksum
        for name in expected.store.keys():
            np.testing.assert_array_equal(
                actual.store[name].data, expected.store[name].data
            )

    def test_repeated_submissions_stay_identical_as_telemetry_warms(self):
        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    return await gateway.map([nest], repeat=6)

            results = run_async(main())
        assert [result.checksum for result in results] == [expected] * 6

    def test_map_preserves_input_order(self):
        nests = [example_4_1(8), example_4_2(8), variable_distance_loop(8)]
        with Session(backend="compiled") as session:
            expected = [session.run(nest).checksum for nest in nests]

            async def main():
                async with Gateway(session) as gateway:
                    return await gateway.map(nests)

            results = run_async(main())
        assert [result.checksum for result in results] == expected

    def test_results_report_gateway_mode(self):
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    return await gateway.submit(example_4_1(8))

            result = run_async(main())
        assert result.mode == "gateway"
        assert result.workers == 2
        assert result.num_chunks == len(result.execution.chunk_sizes)

    def test_gateway_feeds_session_telemetry(self):
        # The compiled backend has no in-kernel driver: the job is split
        # into per-worker groups, and every group's time is recorded.
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    await gateway.submit(example_4_1(8))

            run_async(main())
            assert len(session.telemetry) == 1
            assert session.telemetry.snapshot()["observations"] == 2
            assert session.stats().telemetry_observations == 2

    @pytest.mark.skipif(
        native_codegen.resolve_engine() is None, reason="no native engine"
    )
    def test_driver_jobs_record_no_telemetry(self):
        # A native session's job is one in-kernel driver call over the
        # whole plan: a single group, nothing recorded, the driver reported.
        nest = example_4_1(16)
        with Session(backend="native", mode="native-parallel", workers=2) as session:
            expected = session.run(nest)
            if expected.engine is None:
                pytest.skip("driver unavailable for the active engine")

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0, coalesce=False
                ) as gateway:
                    return await gateway.map([nest], repeat=3)

            results = run_async(main())
            assert len(session.telemetry) == 0
        for result in results:
            assert result.checksum == expected.checksum
            assert result.engine == expected.engine
            assert result.threads == 2


# --------------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------------- #
class _Gate:
    """Blocks gateway executions until released (deterministic overload)."""

    def __init__(self):
        import threading

        self.release = threading.Event()

    def wrap(self, gateway):
        original = gateway._execute_group

        def slow(job, group):
            self.release.wait(TIMEOUT)
            return original(job, group)

        gateway._execute_group = slow


class TestBackpressure:
    def test_overload_rejects_with_stats(self):
        gate = _Gate()
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(
                    session, max_pending=2, exec_workers=2
                ) as gateway:
                    gate.wrap(gateway)
                    first = asyncio.ensure_future(gateway.submit(nest))
                    second = asyncio.ensure_future(gateway.submit(nest))
                    # Let both jobs through admission before overloading.
                    while gateway.stats().pending < 2:
                        await asyncio.sleep(0.01)
                    with pytest.raises(GatewayOverloaded) as rejection:
                        await gateway.submit(nest, wait=False)
                    gate.release.set()
                    await asyncio.gather(first, second)
                    return rejection.value

            rejected = run_async(main())
        stats = rejected.stats
        assert isinstance(stats, GatewayStats)
        assert stats.pending == 2
        assert stats.max_pending == 2
        assert stats.rejected == 1
        assert "pending" in str(rejected)

    def test_waiting_submission_completes_after_capacity_frees(self):
        gate = _Gate()
        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                async with Gateway(
                    session, max_pending=1, exec_workers=2
                ) as gateway:
                    gate.wrap(gateway)
                    first = asyncio.ensure_future(gateway.submit(nest))
                    while gateway.stats().pending < 1:
                        await asyncio.sleep(0.01)
                    # Parks at the admission bound...
                    waiter = asyncio.ensure_future(gateway.submit(nest))
                    await asyncio.sleep(0.05)
                    assert not waiter.done()
                    # ...and runs once the first job finishes.
                    gate.release.set()
                    return await asyncio.gather(first, waiter)

            results = run_async(main())
        assert [result.checksum for result in results] == [expected] * 2

    def test_stats_counters_track_lifecycle(self):
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(session) as gateway:
                    await gateway.map([nest], repeat=3)
                    return gateway.stats()

            stats = run_async(main())
        assert stats.submitted == 3
        assert stats.completed == 3
        assert stats.failed == 0
        assert stats.pending == 0
        assert stats.to_dict()["completed"] == 3


# --------------------------------------------------------------------------- #
# hot traffic: coalescing and the response cache
# --------------------------------------------------------------------------- #
class _CountingExec:
    """Counts (and optionally blocks) gateway group executions."""

    def __init__(self, gateway, release=None):
        self.calls = 0
        self._original = gateway._execute_group
        self._release = release

        def counting(job, group):
            self.calls += 1
            if self._release is not None:
                self._release.wait(TIMEOUT)
            return self._original(job, group)

        gateway._execute_group = counting


class TestHotTraffic:
    def test_repeat_jobs_served_from_cache_without_reexecution(self):
        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    counter = _CountingExec(gateway)
                    first = await gateway.submit(nest)
                    executions = counter.calls
                    second = await gateway.submit(nest)
                    return first, second, executions, counter.calls, gateway.stats()

            first, second, cold_calls, total_calls, stats = run_async(main())
        assert first.checksum == second.checksum == expected
        assert cold_calls > 0
        assert total_calls == cold_calls  # the repeat never executed
        assert stats.result_hits == 1
        assert stats.completed == 2

    def test_cached_stores_are_private_copies(self):
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(session) as gateway:
                    first = await gateway.submit(nest)
                    # Mutating a served response must not leak into later
                    # responses for the same job.
                    name = next(iter(first.store.keys()))
                    first.store[name].data[...] = -1.0
                    second = await gateway.submit(nest)
                    return second

            second = run_async(main())
            expected = session.run(nest)
        assert second.checksum == expected.checksum
        for name in expected.store.keys():
            np.testing.assert_array_equal(
                second.store[name].data, expected.store[name].data
            )

    def test_concurrent_identical_jobs_coalesce_onto_one_execution(self):
        import threading

        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0
                ) as gateway:
                    release = threading.Event()
                    counter = _CountingExec(gateway, release=release)
                    jobs = [
                        asyncio.ensure_future(gateway.submit(nest))
                        for _ in range(4)
                    ]
                    while gateway.stats().pending < 4:
                        await asyncio.sleep(0.01)
                    release.set()
                    results = await asyncio.gather(*jobs)
                    return results, counter.calls, gateway.stats()

            results, calls, stats = run_async(main())
        assert [result.checksum for result in results] == [expected] * 4
        assert stats.coalesced == 3
        assert calls == 2  # one job, two groups: the other three rode along

    def test_disabled_cache_and_coalescing_reexecute_every_job(self):
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(
                    session, exec_workers=2, coalesce=False, result_cache=0
                ) as gateway:
                    counter = _CountingExec(gateway)
                    await gateway.submit(nest)
                    cold_calls = counter.calls
                    await gateway.submit(nest)
                    return cold_calls, counter.calls, gateway.stats()

            cold_calls, total_calls, stats = run_async(main())
        assert total_calls == 2 * cold_calls
        assert stats.result_hits == 0
        assert stats.coalesced == 0

    def test_lru_bound_evicts_oldest_response(self):
        first, second = example_4_1(8), example_4_2(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(session, result_cache=1) as gateway:
                    counter = _CountingExec(gateway)
                    await gateway.submit(first)
                    await gateway.submit(second)   # evicts `first`
                    calls_before = counter.calls
                    await gateway.submit(first)    # re-executes
                    return counter.calls > calls_before, gateway.stats()

            reexecuted, stats = run_async(main())
        assert reexecuted
        assert stats.result_hits == 0

    def test_failed_leader_fails_coalesced_followers(self):
        import threading

        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0
                ) as gateway:
                    release = threading.Event()
                    original = gateway._execute_group

                    def exploding(job, group):
                        release.wait(TIMEOUT)
                        raise RuntimeError("injected leader failure")

                    gateway._execute_group = exploding
                    leader = asyncio.ensure_future(gateway.submit(nest))
                    while gateway.stats().pending < 1:
                        await asyncio.sleep(0.01)
                    follower = asyncio.ensure_future(gateway.submit(nest))
                    while gateway.stats().coalesced < 1:
                        await asyncio.sleep(0.01)
                    release.set()
                    outcomes = await asyncio.gather(
                        leader, follower, return_exceptions=True
                    )
                    gateway._execute_group = original
                    return outcomes, gateway.stats()

            outcomes, stats = run_async(main())
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert stats.failed == 2
        assert stats.pending == 0

    def test_leader_failure_with_full_cache_eviction_racing_follower(self):
        # The nasty interleaving: a follower coalesces onto a leader that
        # will fail, while an unrelated job completes and evicts the only
        # cached response (result_cache=1).  The eviction must not detach
        # or complete the follower, the failure must reach both waiters,
        # and the coalescing slot must not stay poisoned afterwards.
        import threading

        cached_nest = example_4_2(8)
        failing_nest = example_4_1(8)
        evictor_nest = variable_distance_loop(2, 10)
        with Session(backend="compiled") as session:
            expected = session.run(failing_nest).checksum

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=1
                ) as gateway:
                    await gateway.submit(cached_nest)  # fills the one slot
                    blocked = threading.Event()
                    release = threading.Event()
                    original = gateway._execute_group
                    armed = [True]

                    def exploding(job, group):
                        # Only the first group call blocks-then-raises, so
                        # exactly one exec worker is pinned and the evictor
                        # job still has a worker to run on.
                        if armed[0]:
                            armed[0] = False
                            blocked.set()
                            release.wait(TIMEOUT)
                            raise RuntimeError("injected leader failure")
                        return original(job, group)

                    gateway._execute_group = exploding
                    leader = asyncio.ensure_future(gateway.submit(failing_nest))
                    while not blocked.is_set():
                        await asyncio.sleep(0.01)
                    follower = asyncio.ensure_future(gateway.submit(failing_nest))
                    while gateway.stats().coalesced < 1:
                        await asyncio.sleep(0.01)
                    # While the leader is mid-execution: a third job
                    # completes and evicts `cached_nest` from the full
                    # single-slot cache — the eviction races the attached
                    # follower.
                    evictor = await gateway.submit(evictor_nest)
                    release.set()
                    outcomes = await asyncio.gather(
                        leader, follower, return_exceptions=True
                    )
                    gateway._execute_group = original
                    # The coalescing slot is not poisoned: a fresh
                    # submission of the failed program executes and serves.
                    retry = await gateway.submit(failing_nest)
                    return evictor, outcomes, retry, gateway.stats()

            evictor, outcomes, retry, stats = run_async(main())
        assert evictor.checksum == pytest.approx(evictor.checksum)
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert retry.checksum == expected
        assert stats.failed == 2
        assert stats.pending == 0
        assert stats.completed >= 3  # cached, evictor, retry


# --------------------------------------------------------------------------- #
# the retry-after hint
# --------------------------------------------------------------------------- #
class TestRetryAfterHint:
    def test_cold_gateway_hints_zero(self):
        gate = _Gate()
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(
                    session, max_pending=1, exec_workers=2
                ) as gateway:
                    # Nothing has completed yet: no service-time estimate.
                    assert gateway.retry_after_hint() == 0.0
                    gate.wrap(gateway)
                    job = asyncio.ensure_future(gateway.submit(nest))
                    while gateway.stats().pending < 1:
                        await asyncio.sleep(0.01)
                    with pytest.raises(GatewayOverloaded) as rejection:
                        await gateway.submit(nest, wait=False)
                    gate.release.set()
                    await job
                    return rejection.value

            rejected = run_async(main())
        assert rejected.retry_after_hint == 0.0

    def test_warm_gateway_hints_from_queue_depth_and_service_ewma(self):
        gate = _Gate()
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(
                    session, max_pending=2, exec_workers=2, result_cache=0
                ) as gateway:
                    # Warm the service-time EWMA with real completions.
                    await gateway.map([nest], repeat=3)
                    assert gateway.retry_after_hint() == 0.0  # queue empty
                    gate.wrap(gateway)
                    first = asyncio.ensure_future(gateway.submit(nest))
                    second = asyncio.ensure_future(gateway.submit(nest))
                    while gateway.stats().pending < 2:
                        await asyncio.sleep(0.01)
                    with pytest.raises(GatewayOverloaded) as rejection:
                        await gateway.submit(nest, wait=False)
                    # Little's law shape: pending jobs times the EWMA
                    # service time, divided over the exec workers.
                    expected = (
                        gateway.stats().pending
                        * gateway._service_ewma
                        / gateway.config.exec_workers
                    )
                    live_hint = gateway.retry_after_hint()
                    gate.release.set()
                    await asyncio.gather(first, second)
                    return rejection.value, live_hint, expected

            rejected, live_hint, expected = run_async(main())
        assert rejected.retry_after_hint > 0.0
        assert rejected.retry_after_hint == pytest.approx(expected)
        assert live_hint == pytest.approx(expected)

    def test_hint_carried_by_the_exception_constructor(self):
        error = GatewayOverloaded("full", retry_after_hint=1.5)
        assert error.retry_after_hint == 1.5
        assert GatewayOverloaded("full").retry_after_hint == 0.0


# --------------------------------------------------------------------------- #
# failures and shutdown
# --------------------------------------------------------------------------- #
class TestFailuresAndDrain:
    def test_analysis_failure_propagates_and_frees_capacity(self):
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(session, max_pending=1) as gateway:
                    with pytest.raises(Exception):
                        await gateway.submit("loop i1 = broken")
                    stats_after = gateway.stats()
                    # Capacity freed: the next job is admitted and served.
                    result = await gateway.submit(example_4_1(8))
                    return stats_after, result

            stats_after, result = run_async(main())
        assert stats_after.failed == 1
        assert stats_after.pending == 0
        assert result.checksum == pytest.approx(result.checksum)

    def test_execution_failure_rejects_job_but_gateway_survives(self):
        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    original = gateway._execute_group
                    calls = []

                    def exploding(job, group):
                        if not calls:
                            calls.append(group)
                            raise RuntimeError("injected group failure")
                        return original(job, group)

                    gateway._execute_group = exploding
                    with pytest.raises(RuntimeError, match="injected"):
                        await gateway.submit(nest)
                    gateway._execute_group = original
                    follow_up = await gateway.submit(nest)
                    return gateway.stats(), follow_up

            stats, follow_up = run_async(main())
        assert stats.failed == 1
        assert stats.completed == 1
        assert follow_up.checksum == expected

    def test_aclose_drains_in_flight_jobs(self):
        gate = _Gate()
        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                gateway = Gateway(session, exec_workers=2)
                async with gateway:
                    gate.wrap(gateway)
                    job = asyncio.ensure_future(gateway.submit(nest))
                    while gateway.stats().pending < 1:
                        await asyncio.sleep(0.01)
                    gate.release.set()
                    # __aexit__ drains: by the time the block exits, the
                    # job future must be resolved.
                return gateway, await job

            gateway, result = run_async(main())
        assert result.checksum == expected
        assert gateway.closed
        assert gateway.stats().pending == 0

    def test_submit_after_close_raises(self):
        with Session(backend="compiled") as session:

            async def main():
                gateway = Gateway(session)
                async with gateway:
                    pass
                await gateway.submit(example_4_1(8))

            with pytest.raises(ExecutionError, match="closed"):
                run_async(main())

    def test_aclose_idempotent_and_without_start(self):
        with Session(backend="compiled") as session:

            async def main():
                gateway = Gateway(session)
                await gateway.aclose()
                await gateway.aclose()
                return gateway.closed

            assert run_async(main())

    def test_gateway_leaves_session_open(self):
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(session) as gateway:
                    await gateway.submit(example_4_1(8))

            run_async(main())
            assert not session.closed
            session.run(example_4_1(8))  # still serves


# --------------------------------------------------------------------------- #
# the sync driver
# --------------------------------------------------------------------------- #
class TestServe:
    def test_serve_matches_session_map(self):
        nests = [example_4_1(8), example_4_2(8)]
        with Session(backend="compiled") as session:
            expected = [result.checksum for result in session.map(nests, repeat=2)]
        with Session(backend="compiled") as session:
            results = serve(session, nests, repeat=2)
        assert [result.checksum for result in results] == expected

    def test_serve_accepts_config(self):
        with Session(backend="compiled") as session:
            results = serve(
                session,
                [example_4_1(8)],
                config=GatewayConfig(max_pending=2, exec_workers=2),
            )
        assert len(results) == 1 and results[0].mode == "gateway"


# --------------------------------------------------------------------------- #
# engine labels: a result names the engine that ran
# --------------------------------------------------------------------------- #
class TestEngineLabels:
    """The gateway reports the labels its groups' backend calls returned —
    never the configured backend's name in place of an engine that ran."""

    @pytest.mark.skipif(
        native_codegen.resolve_engine() is None, reason="no native engine"
    )
    def test_response_cache_hit_reports_the_leaders_engine(self):
        nest = example_4_1(16)
        with Session(backend="native") as session:

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    first = await gateway.submit(nest)
                    second = await gateway.submit(nest)
                    return first, second, gateway.stats().result_hits

            first, second, hits = run_async(main())
        assert hits == 1
        assert first.backend.startswith("native-cc")
        assert (second.backend, second.engine, second.threads) == (
            first.backend, first.engine, first.threads
        )

    def test_native_without_an_engine_reports_its_fallback(self, monkeypatch):
        monkeypatch.setenv(native_codegen.ENGINE_ENV, "none")
        nest = example_4_1(16)
        with Session(backend="native") as session:
            expected = session.run(nest)

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    return await gateway.submit(nest)

            actual = run_async(main())
        assert expected.backend == "vectorized"
        assert actual.backend == expected.backend
        assert actual.engine is None

    def test_narrow_vectorized_plan_reports_the_compiled_body(self):
        nest = "loop i1 = 0 .. 3\nloop i2 = 0 .. 3\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        with Session(backend="vectorized") as session:
            expected = session.run(nest)

            async def main():
                async with Gateway(
                    session, result_cache=0, coalesce=False
                ) as gateway:
                    return await gateway.submit(nest)

            actual = run_async(main())
        assert expected.num_chunks == 4
        assert expected.backend == "compiled"
        assert actual.backend == expected.backend
