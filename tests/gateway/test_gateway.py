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
import glob
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
import repro.api.session as session_module
import repro.core.cache as cache_module
from repro.api import Session
from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.exceptions import ExecutionError, GatewayOverloaded, WorkloadError
from repro.gateway import Gateway, GatewayConfig, GatewayStats, serve
from repro.loopnest.builder import loop_nest
from repro.runtime.arrays import ArrayStore
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite
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

    @pytest.mark.parametrize("field", ["max_pending", "analysis_workers", "exec_workers"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(WorkloadError):
            GatewayConfig(**{field: 0})

    def test_queue_depth_is_an_unknown_field(self):
        # Admission bounds the execution pool's FIFO; there is no alias.
        with pytest.raises(TypeError):
            GatewayConfig(queue_depth=1)
        with Session() as session, pytest.raises(TypeError):
            Gateway(session, queue_depth=1)

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

    def test_repeated_submissions_stay_identical(self):
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
        assert result.num_chunks == len(result.execution.chunk_sizes)

    @pytest.mark.skipif(
        native_codegen.resolve_engine() is None, reason="no native engine"
    )
    @pytest.mark.usefixtures("no_driver_floor")
    def test_driver_jobs_record_no_telemetry(self):
        # A native session's job is one in-kernel driver call over the
        # whole plan: nothing recorded.  Three concurrent
        # jobs share two workers' cores: each runs on the threads the
        # others leave free, one or two.
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
            assert result.threads in (1, 2)
            # Two ranges ran the driver; one ran the serial kernel.
            assert result.engine == (expected.engine if result.threads == 2 else None)
            assert result.backend == (result.engine or "native-cc")


# --------------------------------------------------------------------------- #
# warm jobs on the event loop, cold work on the analysis pool
# --------------------------------------------------------------------------- #
needs_engine = pytest.mark.skipif(
    native_codegen.resolve_engine() is None, reason="no native engine"
)


class _ThreadLog:
    """Records the thread of every call to the wrapped functions."""

    def __init__(self):
        self.calls = []

    def wrap(self, label, function):
        def recording(*args, **kwargs):
            self.calls.append((label, threading.current_thread()))
            return function(*args, **kwargs)

        return recording

    def labels(self, thread=None):
        return [label for label, ran in self.calls if thread is None or ran is thread]


def _cold_work_log(monkeypatch):
    """Log analysis misses, plan builds, kernel builds and the driver
    decisions a program's first probe makes."""
    log = _ThreadLog()
    monkeypatch.setattr(
        cache_module, "analyze_nest", log.wrap("analyze", cache_module.analyze_nest)
    )
    monkeypatch.setattr(
        TransformedLoopNest, "from_report",
        staticmethod(log.wrap("plan", TransformedLoopNest.from_report)),
    )
    monkeypatch.setattr(
        native_codegen, "_build_kernel", log.wrap("compile", native_codegen._build_kernel)
    )
    probe = Session._probe_driver

    def first_probe(session, program):
        if not program.probed:
            log.calls.append(("probe", threading.current_thread()))
        return probe(session, program)

    monkeypatch.setattr(Session, "_probe_driver", first_probe)
    return log


class _PrepareCount:
    """Counts the jobs that reach the gateway's analysis pool."""

    def __init__(self, gateway):
        self.calls = 0
        original = gateway._prepare

        def counting(*args):
            self.calls += 1
            return original(*args)

        gateway._prepare = counting


@needs_engine
class TestWarmPath:
    def test_warm_jobs_never_reach_the_analysis_pool(self):
        nests = [example_4_1(16), variable_distance_loop(12)]
        with Session(backend="native", mode="native-parallel", workers=2) as session:
            expected = [session.run(nest) for nest in nests]

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0, coalesce=False
                ) as gateway:
                    counter = _PrepareCount(gateway)
                    first = await gateway.map(nests)
                    cold_calls = counter.calls
                    hits = session.cache.stats.hits
                    warm = await gateway.map(nests, repeat=3)
                    return first, warm, cold_calls, counter.calls, hits

            first, warm, cold_calls, calls, hits = run_async(main())
            hits_after = session.cache.stats.hits
        # Session.run built the programs but never probed the driver, so
        # each program's first job went to the pool once; none after it.
        assert (cold_calls, calls) == (2, 2)
        # Warm jobs still take the analysis cache's counted hit.
        assert hits_after - hits == 6
        assert all(result.cache_hit for result in warm)
        for result, reference in zip(first + warm, expected * 4):
            assert result.checksum == reference.checksum
            assert result.store.identical(reference.store)

    def test_cold_jobs_never_analyze_plan_or_compile_on_the_loop(self, monkeypatch):
        native_codegen.clear_kernel_cache()
        log = _cold_work_log(monkeypatch)
        nests = [example_4_1(16), example_4_2(12), variable_distance_loop(12)]
        with Session(backend="native", mode="native-parallel", workers=2) as session:

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0, coalesce=False
                ) as gateway:
                    counter = _PrepareCount(gateway)
                    await gateway.map(nests, repeat=3)
                    return threading.current_thread(), counter.calls

            loop_thread, calls = run_async(main())
        native_codegen.clear_kernel_cache()
        assert log.labels(loop_thread) == []
        assert sorted(set(log.labels())) == ["analyze", "compile", "plan", "probe"]
        # Concurrent first jobs of one program may each go to the pool;
        # each program is analyzed, planned and probed once per job there.
        assert 3 <= calls <= 9
        assert log.labels().count("probe") <= calls

    def test_evicted_analysis_goes_back_to_the_pool(self, monkeypatch):
        nest = example_4_1(16)
        with Session(backend="native", mode="native-parallel", workers=2) as session:
            expected = session.run(nest).checksum

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0, coalesce=False
                ) as gateway:
                    counter = _PrepareCount(gateway)
                    await gateway.submit(nest)
                    await gateway.submit(nest)
                    warm_calls = counter.calls
                    # The program stays cached; its analysis does not.
                    session.cache.clear()
                    log = _cold_work_log(monkeypatch)
                    evicted = await gateway.submit(nest)
                    again = await gateway.submit(nest)
                    return (threading.current_thread(), log, warm_calls,
                            counter.calls, evicted, again)

            loop_thread, log, warm_calls, calls, evicted, again = run_async(main())
            programs = len(session._programs)
        assert (warm_calls, calls) == (1, 2)
        assert programs == 1
        assert log.labels() == ["analyze"] and log.labels(loop_thread) == []
        assert not evicted.cache_hit and again.cache_hit
        assert evicted.checksum == again.checksum == expected


# --------------------------------------------------------------------------- #
# driver width: the cores other jobs leave free
# --------------------------------------------------------------------------- #
#: Two partitions, so a plan of exactly two chunks.
TWO_CHUNKS = "loop i1 = 0 .. 15\nA[i1] = A[i1 - 2] + 1.0"

#: Divides by zero in its third row: the same exception at every width.
FAILING = "loop i1 = 0 .. 7\nloop i2 = 1 .. 8\nA[i1, i2] = A[i1, i2 - 1] + 1.0 / (i1 - 2)"


class _KernelGate:
    """Holds every run of a session's executor until released, recording
    the driver width each was given."""

    def __init__(self, executor):
        self.release = threading.Event()
        self.entered = []
        original = executor.run

        def gated(transformed, store, plan=None, workers=None):
            self.entered.append(workers)
            self.release.wait(TIMEOUT)
            return original(transformed, store, plan=plan, workers=workers)

        executor.run = gated

    async def wait_for(self, count):
        while len(self.entered) < count:
            await asyncio.sleep(0.005)


@needs_engine
@pytest.mark.usefixtures("no_driver_floor")
class TestDriverWidth:
    def test_job_alone_gets_every_worker(self):
        with Session(backend="native", mode="native-parallel", workers=4) as session:
            expected = session.run(example_4_1(16))
            (result,), _ = _serve_fresh(session, [example_4_1(16)], exec_workers=4)
        assert result.threads == 4
        assert result.workers == expected.workers == 4
        assert result.engine == expected.engine and result.engine is not None
        assert result.checksum == expected.checksum

    def test_jobs_split_the_workers_they_find_free(self):
        with Session(backend="native", mode="native-parallel", workers=4) as session:
            gate = _KernelGate(session.executor)

            async def main():
                async with Gateway(
                    session, exec_workers=4, result_cache=0, coalesce=False
                ) as gateway:
                    jobs = []
                    for count, source in enumerate(
                        [TWO_CHUNKS, example_4_1(16), example_4_2(12)], start=1
                    ):
                        jobs.append(asyncio.ensure_future(gateway.submit(source)))
                        await gate.wait_for(count)
                    held = gateway._threads_held
                    gate.release.set()
                    results = await asyncio.gather(*jobs)
                    alone = await gateway.submit(example_4_1(16))
                    return results, held, alone, gateway._threads_held

            results, held, alone, released = run_async(main())
        # Alone: all four, and its two chunks make two ranges.  Next:
        # 4 - 2.  Last: 4 - 4, raised to one.
        assert gate.entered[:3] == [4, 2, 1]
        assert [result.threads for result in results] == [2, 2, 1]
        assert held == 5 and released == 0
        assert results[2].engine is None and results[2].backend == "native-cc"
        assert alone.threads == 4

    @pytest.mark.parametrize("backend", ["native", "vectorized"])
    def test_every_width_matches_session_run(self, backend):
        workers = 3
        nests = [example_4_1(16), example_4_2(12), variable_distance_loop(12), TWO_CHUNKS]
        with Session(backend=backend, mode="native-parallel", workers=workers) as session:
            expected = [session.run(nest) for nest in nests]
            with pytest.raises(ZeroDivisionError) as failure:
                session.run(FAILING)

            async def main():
                outcomes = []
                async with Gateway(
                    session, exec_workers=workers, result_cache=0, coalesce=False
                ) as gateway:
                    for width in range(1, workers + 1):
                        # Other jobs hold all but ``width`` of the threads.
                        gateway._threads_held = workers - width
                        results = [await gateway.submit(nest) for nest in nests]
                        with pytest.raises(type(failure.value)) as raised:
                            await gateway.submit(FAILING)
                        outcomes.append((width, results, raised.value))
                    gateway._threads_held = 0
                return outcomes

            outcomes = run_async(main())
        for width, results, error in outcomes:
            assert str(error) == str(failure.value)
            for result, reference in zip(results, expected):
                assert result.checksum == reference.checksum, (width, result.name)
                assert result.store.identical(reference.store), (width, result.name)
                if backend == "native":
                    assert result.threads == min(width, reference.num_chunks)
                else:
                    assert result.threads == 0


# --------------------------------------------------------------------------- #
# backpressure
# --------------------------------------------------------------------------- #
class _Gate:
    """Blocks the execute step of a gateway's jobs until released
    (deterministic overload), counting the jobs a worker started."""

    def __init__(self):
        self.release = threading.Event()
        self.entered = []

    def wrap(self, gateway):
        session = gateway.session
        original = session._execute

        def slow(*args, **kwargs):
            self.entered.append(args)
            self.release.wait(TIMEOUT)
            return original(*args, **kwargs)

        session._execute = slow

    async def wait_for(self, count):
        while len(self.entered) < count:
            await asyncio.sleep(0.005)


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
# the execution pool's FIFO: workers take work without the event loop
# --------------------------------------------------------------------------- #
class TestExecutionPool:
    def test_queued_groups_counts_items_no_worker_has_taken(self):
        gate = _Gate()
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                async with Gateway(
                    session, exec_workers=1, result_cache=0, coalesce=False
                ) as gateway:
                    await gateway.submit(nest)  # warm: the jobs below dispatch inline
                    gate.wrap(gateway)
                    jobs = [asyncio.ensure_future(gateway.submit(nest)) for _ in range(3)]
                    await gate.wait_for(1)
                    held = gateway.stats().queued_groups
                    gate.release.set()
                    results = await asyncio.gather(*jobs)
                    return held, results, gateway.stats()

            held, results, stats = run_async(main())
        # One worker holds the first job; two wait for it.
        assert [result.workers for result in results] == [1, 1, 1]
        assert held == 2
        assert (stats.queued_groups, stats.completed, stats.pending) == (0, 4, 0)

    def test_a_free_worker_takes_the_next_job_while_the_loop_is_blocked(self):
        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                async with Gateway(
                    session, exec_workers=1, result_cache=0, coalesce=False
                ) as gateway:
                    await gateway.submit(nest)  # warm: the jobs below dispatch inline
                    original = gateway._execute_group
                    started = []

                    def first_is_slow(job, group):
                        started.append(time.perf_counter())
                        if len(started) == 1:
                            time.sleep(0.05)
                        return original(job, group)

                    gateway._execute_group = first_is_slow
                    jobs = [asyncio.ensure_future(gateway.submit(nest)) for _ in range(2)]
                    while not started:
                        await asyncio.sleep(0.001)
                    # The event loop stalls well past the first job's run.
                    time.sleep(0.3)
                    resumed = time.perf_counter()
                    results = await asyncio.gather(*jobs)
                    return started, resumed, results

            started, resumed, results = run_async(main())
        assert [result.checksum for result in results] == [expected] * 2
        # The worker took the second job from the pool while the loop was
        # blocked: nothing on the loop hands work to a worker.
        assert len(started) == 2 and started[1] < resumed


# --------------------------------------------------------------------------- #
# reported workers: the workers that ran the job, as Session.run reports
# --------------------------------------------------------------------------- #
class TestReportedWorkers:
    @needs_engine
    def test_one_chunk_driver_job_reports_one_worker(self):
        wavefront = next(case.nest for case in workload_suite(48) if case.name == "wavefront")
        with Session(backend="native", mode="native-parallel", workers=4) as session:
            expected = session.run(wavefront)
            (result,), _ = _serve_fresh(session, [wavefront], exec_workers=4)
        assert expected.num_chunks == 1
        assert (result.workers, result.threads) == (expected.workers, expected.threads)
        assert (result.workers, result.threads) == (1, 1)

    @needs_engine
    @pytest.mark.usefixtures("no_driver_floor")
    def test_cached_and_coalesced_answers_carry_the_leaders_workers(self):
        gate = _Gate()
        with Session(backend="native", mode="native-parallel", workers=4) as session:

            async def main():
                async with Gateway(session, exec_workers=4) as gateway:
                    gate.wrap(gateway)
                    leader = asyncio.ensure_future(gateway.submit(TWO_CHUNKS))
                    await gate.wait_for(1)
                    follower = asyncio.ensure_future(gateway.submit(TWO_CHUNKS))
                    while gateway.stats().coalesced < 1:
                        await asyncio.sleep(0.005)
                    gate.release.set()
                    answers = list(await asyncio.gather(leader, follower))
                    answers.append(await gateway.submit(TWO_CHUNKS))
                    return answers, gateway.stats()

            answers, stats = run_async(main())
        assert (stats.coalesced, stats.result_hits) == (1, 1)
        # The leader's driver cut its two chunks into two ranges.
        assert [answer.workers for answer in answers] == [2, 2, 2]


# --------------------------------------------------------------------------- #
# hot traffic: coalescing and the response cache
# --------------------------------------------------------------------------- #
class _CountingExec:
    """Counts (and optionally blocks) gateway job executions."""

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
        assert calls == 1  # one job: the other three rode along

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
                        # Only the first job's call blocks-then-raises, so
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
                            raise RuntimeError("injected job failure")
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

    def test_cancelled_caller_of_a_failing_job_frees_its_slot(self):
        # The caller gives up while the job runs, then the job fails: the
        # job must still settle, or ``aclose`` would wait for it forever.
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                gateway = Gateway(session, exec_workers=2)
                async with gateway:
                    started = threading.Event()
                    release = threading.Event()

                    def exploding(job, group):
                        started.set()
                        release.wait(TIMEOUT)
                        raise RuntimeError("injected job failure")

                    gateway._execute_group = exploding
                    caller = asyncio.ensure_future(gateway.submit(nest))
                    while not started.is_set():
                        await asyncio.sleep(0.01)
                    caller.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await caller
                    release.set()
                return gateway.stats()

            stats = run_async(main())
        assert (stats.pending, stats.failed, stats.completed) == (0, 1, 0)

    def test_caller_cancelled_during_analysis_frees_its_slot(self):
        # The caller gives up while its cold job is on the analysis pool:
        # the job runs on, its result dropped, and ``aclose`` returns.
        nest = example_4_1(8)
        with Session(backend="compiled") as session:

            async def main():
                gateway = Gateway(session, exec_workers=2)
                async with gateway:
                    original = gateway._prepare

                    def slow(*args):
                        time.sleep(0.3)
                        return original(*args)

                    gateway._prepare = slow
                    caller = asyncio.ensure_future(gateway.submit(nest))
                    await asyncio.sleep(0.05)
                    caller.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await caller
                    await asyncio.wait_for(gateway.aclose(), timeout=5.0)
                return gateway.stats()

            stats = run_async(main())
        assert (stats.pending, stats.failed, stats.completed) == (0, 0, 1)

    def test_caller_cancelled_while_its_job_waits_for_a_worker_frees_its_slot(self):
        # The one worker is busy, so the next job waits in the execution
        # pool's FIFO; its caller gives up, and the job still runs.
        gate = _Gate()
        nest = example_4_1(8)
        with Session(backend="compiled") as session:
            expected = session.run(nest).checksum

            async def main():
                gateway = Gateway(session, exec_workers=1, result_cache=0, coalesce=False)
                async with gateway:
                    gate.wrap(gateway)
                    held = asyncio.ensure_future(gateway.submit(nest))
                    await gate.wait_for(1)
                    caller = asyncio.ensure_future(gateway.submit(nest))
                    while gateway.stats().queued_groups < 1:
                        await asyncio.sleep(0.005)
                    caller.cancel()
                    with pytest.raises(asyncio.CancelledError):
                        await caller
                    gate.release.set()
                    result = await held
                    await asyncio.wait_for(gateway.aclose(), timeout=5.0)
                return result, len(gate.entered), gateway.stats()

            result, started, stats = run_async(main())
        assert result.checksum == expected
        assert started == 2  # the cancelled caller's job ran too
        assert (stats.pending, stats.failed, stats.completed, stats.queued_groups) == (
            0, 0, 2, 0
        )

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


# --------------------------------------------------------------------------- #
# per-cell work: store init and checksum on the execution workers
# --------------------------------------------------------------------------- #
#: Rationally feasible, so it analyzes and plans, but no integer point meets
#: all three levels' bounds: a plan without chunks.
ZERO_ITERATIONS = (
    "loop i1 = 0 .. 1\nloop i2 = 2*i1 - 1 .. 1 - 2*i1\nloop i3 = 1 .. 2*i1\n"
    "A[i1, i2, i3] = A[i1, i2, i3 - 1] + 1.0"
)

#: (backend, mode) of a session whose jobs run serially, and of one whose
#: jobs are in-kernel driver calls.
SESSIONS = [
    pytest.param("compiled", "serial", id="serial"),
    pytest.param(
        "native", "native-parallel", id="driver",
        marks=pytest.mark.skipif(
            native_codegen.resolve_engine() is None, reason="no native engine"
        ),
    ),
]


class _StoreProbe:
    """Stands in for the session module's ``store_for_nest``: records the
    thread that builds each store and every thread that sums one (through
    the store's ``values``), each after sleeping ``delay`` seconds."""

    def __init__(self, monkeypatch, delay: float = 0.0):
        self.stores = []
        build = session_module.store_for_nest

        class RecordingStore(ArrayStore):
            def values(self):
                self.sum_threads.append(threading.current_thread().name)
                time.sleep(delay)
                return super().values()

        def recording_store_for_nest(nest, **options):
            time.sleep(delay)
            store = RecordingStore(build(nest, **options))
            store.init_thread = threading.current_thread().name
            store.sum_threads = []
            self.stores.append(store)
            return store

        monkeypatch.setattr(session_module, "store_for_nest", recording_store_for_nest)


def _serve_fresh(session, sources, **config):
    """Results and final stats of ``sources`` through a cache-free gateway."""

    async def main():
        async with Gateway(
            session, result_cache=0, coalesce=False, **config
        ) as gateway:
            results = await gateway.map(sources)
            return results, gateway.stats()

    return run_async(main())


class TestStorePlacement:
    """The execution worker that takes a job builds its store and sums its
    checksum, on a ``gateway-exec`` thread; results, errors and stats stay
    those of ``Session.run``."""

    @pytest.mark.parametrize("backend, mode", SESSIONS)
    def test_store_init_and_checksum_run_on_exec_workers(self, backend, mode, monkeypatch):
        nests = [example_4_1(8), variable_distance_loop(8), ZERO_ITERATIONS]
        with Session(backend=backend, mode=mode, workers=2) as session:
            expected = [session.run(nest) for nest in nests]
            probe = _StoreProbe(monkeypatch)
            results, _ = _serve_fresh(session, nests, exec_workers=2)
        assert sorted(id(result.store) for result in results) == sorted(map(id, probe.stores))
        for store in probe.stores:
            assert store.init_thread.startswith("gateway-exec")
            assert len(store.sum_threads) == 1
            assert store.sum_threads[0].startswith("gateway-exec")
        for result, reference in zip(results, expected):
            assert result.checksum == reference.checksum
            assert result.store.identical(reference.store)

    @pytest.mark.parametrize("backend, mode", SESSIONS)
    def test_unknown_initializer_fails_like_session_run(self, backend, mode):
        nest = example_4_1(8)
        with Session(backend=backend, mode=mode, workers=2) as session:
            with pytest.raises(ExecutionError) as expected:
                session.run(nest, initializer="bogus")

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0, coalesce=False
                ) as gateway:
                    with pytest.raises(ExecutionError) as raised:
                        await gateway.submit(nest, initializer="bogus")
                    failed = gateway.stats()
                    served = await gateway.submit(nest)
                    return raised.value, failed, served

            error, failed, served = run_async(main())
            reference = session.run(nest)
        assert type(error) is type(expected.value)
        assert str(error) == str(expected.value)
        assert (failed.pending, failed.failed, failed.completed) == (0, 1, 0)
        assert served.checksum == reference.checksum

    @pytest.mark.parametrize("backend, mode", SESSIONS)
    def test_unknown_initializer_fails_without_iterations(self, backend, mode):
        # No iterations, so no arrays: the initializer is still checked.
        with Session(backend=backend, mode=mode, workers=2) as session:
            with pytest.raises(ExecutionError, match="unknown initializer") as expected:
                session.run(ZERO_ITERATIONS, initializer="bogus")

            async def main():
                async with Gateway(
                    session, exec_workers=2, result_cache=0, coalesce=False
                ) as gateway:
                    with pytest.raises(ExecutionError) as raised:
                        await gateway.submit(ZERO_ITERATIONS, initializer="bogus")
                    return raised.value, gateway.stats()

            error, stats = run_async(main())
        assert str(error) == str(expected.value)
        assert (stats.pending, stats.failed, stats.completed) == (0, 1, 0)

    @pytest.mark.parametrize(
        "backend, mode", SESSIONS + [pytest.param("vectorized", "serial", id="vectorized")]
    )
    def test_zero_iteration_nest_matches_session_run(self, backend, mode):
        with Session(backend=backend, mode=mode, workers=2) as session:
            expected = session.run(ZERO_ITERATIONS)
            (result,), stats = _serve_fresh(session, [ZERO_ITERATIONS], exec_workers=2)
        assert expected.num_chunks == 0 and len(expected.store) == 0
        assert (result.num_chunks, result.checksum, result.backend) == (
            expected.num_chunks, expected.checksum, expected.backend
        )
        assert len(result.store) == 0 and result.execution.chunk_sizes == ()
        assert (stats.completed, stats.failed, stats.pending) == (1, 0, 0)

    def test_vectorized_jobs_stay_bit_identical(self):
        nests = [case.nest for case in workload_suite(8)]
        with Session(backend="vectorized") as session:
            expected = [session.run(nest) for nest in nests]
            results, stats = _serve_fresh(session, nests, exec_workers=2)
        assert stats.completed == len(nests)
        for result, reference in zip(results, expected):
            assert result.checksum == reference.checksum
            assert result.store.identical(reference.store)

    @needs_engine
    @pytest.mark.usefixtures("no_driver_floor")
    def test_concurrent_jobs_build_and_sum_each_store_once(self, monkeypatch):
        # More workers than cores and a short switch interval: a lost update
        # of the gateway's thread or queue counts would leave them off zero,
        # and a store shared by two jobs would be summed twice.
        nest = example_4_1(16)
        jobs = 12
        with Session(backend="native", mode="native-parallel") as session:
            expected = session.run(nest)
            probe = _StoreProbe(monkeypatch)

            async def main():
                async with Gateway(
                    session, exec_workers=8, result_cache=0, coalesce=False
                ) as gateway:
                    results = await gateway.map([nest] * jobs)
                    return results, gateway.stats(), gateway._threads_held

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results, stats, held = run_async(main())
            finally:
                sys.setswitchinterval(interval)
        assert (held, stats.queued_groups, stats.completed) == (0, 0, jobs)
        assert sorted(id(result.store) for result in results) == sorted(map(id, probe.stores))
        assert all(len(store.sum_threads) == 1 for store in probe.stores)
        for result in results:
            assert result.checksum == expected.checksum
            assert result.store.identical(expected.store)

    def test_setup_seconds_hold_store_init_and_checksum(self, monkeypatch):
        delay = 0.1
        with Session(backend="compiled") as session:
            _StoreProbe(monkeypatch, delay=delay)
            (result,), _ = _serve_fresh(session, [example_4_1(8)], exec_workers=2)
        # Store init and the checksum each slept ``delay`` on a worker: that
        # is set-up; ``elapsed`` is the run alone.
        assert result.setup_seconds >= 2 * delay - 1e-3
        assert result.execute_seconds < delay


# --------------------------------------------------------------------------- #
# two doors, one execution path
# --------------------------------------------------------------------------- #
def _serve_variant(variant: int, n: int):
    """The serving mix's transcendental row recurrence: one chunk per row."""
    return (
        loop_nest(f"serve_v{variant}")
        .loop("i1", 0, n - 1)
        .loop("i2", 1, n - 1)
        .statement(
            f"A[i1, i2] = sin(A[i1, i2 - 1]) * 0.5 + cos(A[i1, i2]) * {0.8 + 0.01 * variant} "
            "+ exp(A[i1, i2] * -0.3)"
        )
        .build()
    )


def _serve_mix():
    """The six programs of the serving mix, at their serving sizes."""
    sizes = {"example-4.1": 256, "variable-rank1-3": 192, "three-deep": 48}
    return [
        case.nest for name, n in sizes.items() for case in workload_suite(n) if case.name == name
    ] + [_serve_variant(variant, 192) for variant in range(3)]


#: What a run reports about how it ran; only ``mode`` tells the doors apart.
PARITY_FIELDS = (
    "backend", "engine", "threads", "workers", "fallback", "num_chunks", "checksum",
    "verified",
)

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="shared mode needs /dev/shm"
)


def _parity_sessions():
    for backend in ("native", "vectorized", "compiled"):
        for mode in ("serial", "shared", "native-parallel"):
            marks = [needs_dev_shm] if mode == "shared" else []
            if backend == "native":
                marks.append(needs_engine)
            yield pytest.param(backend, mode, marks=marks, id=f"{backend}-{mode}")


class TestTwoDoors:
    @pytest.mark.parametrize("backend, mode", _parity_sessions())
    def test_gateway_reports_what_session_run_reports(self, backend, mode):
        # The suite at N=48 for every backend; the serving mix too, except
        # for compiled Python bodies.
        nests = [case.nest for case in workload_suite(48)]
        if backend != "compiled":
            nests += _serve_mix()
        with Session(backend=backend, mode=mode) as session:
            workers = session.config.resolved_workers()
            direct = [session.run(nest) for nest in nests]
            # Each door starts from the same measured costs: a ``shared``
            # run's LPT groups, and so the engine a vectorized group
            # reports, follow them.
            session.telemetry.clear()
            served, _ = _serve_fresh(session, nests, exec_workers=workers, max_pending=1)
        differing = [
            (nest.name, field, getattr(one, field), getattr(other, field))
            for nest, one, other in zip(nests, direct, served)
            for field in PARITY_FIELDS
            if getattr(one, field) != getattr(other, field)
        ]
        assert differing == []
        assert {result.mode for result in served} == {"gateway"}

    @pytest.mark.parametrize("mode", ["serial", "native-parallel"])
    def test_gateway_follows_the_verification_policy(self, mode):
        nests = [case.nest for case in workload_suite(8)]
        with Session(backend="vectorized", mode=mode, verify="always") as session:
            workers = session.config.resolved_workers()
            results, _ = _serve_fresh(session, nests, exec_workers=workers)
        assert [result.verified for result in results] == [True] * len(nests)


#: Runs one ``Session`` in ``shared`` mode from three threads at once and
#: prints whether every checksum matched a serial session's.
SHARED_CALLERS = """
import threading
from repro.api import Session
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.synthetic import variable_distance_loop

nests = [example_4_1(40), example_4_2(40), variable_distance_loop(40)]
with Session(backend="compiled") as serial:
    expected = [serial.run(nest).checksum for nest in nests]
mismatches = []
with Session(backend="compiled", mode="shared", workers=2) as session:
    def call(offset):
        for step in range(2 * len(nests)):
            index = (offset + step) % len(nests)
            if session.run(nests[index]).checksum != expected[index]:
                mismatches.append(nests[index].name)

    callers = [threading.Thread(target=call, args=(offset,)) for offset in range(3)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
print("mismatches:", mismatches)
"""


@needs_dev_shm
class TestSharedModeConcurrency:
    def test_concurrent_session_runs_take_turns_on_the_pool(self):
        # In a subprocess of its own session: a caller stuck on the pool
        # fails the test at the timeout, and its pool workers go with it.
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-c", SHARED_CALLERS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=path), start_new_session=True,
        )
        try:
            out, err = process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            pytest.fail("concurrent shared-mode callers still blocked after 120 s")
        assert process.returncode == 0, err
        assert out.splitlines()[-1] == "mismatches: []"

    def test_gateway_over_a_shared_session(self):
        segments = set(glob.glob("/dev/shm/psm_*"))
        nests = [example_4_1(40), example_4_2(40), variable_distance_loop(40)] * 2
        with Session(backend="compiled") as serial:
            expected = [serial.run(nest).checksum for nest in nests]
        with Session(backend="compiled", mode="shared") as session:
            workers = session.config.resolved_workers()
            results, stats = _serve_fresh(session, nests, exec_workers=workers)
        assert [result.checksum for result in results] == expected
        assert {result.mode for result in results} == {"gateway"}
        assert (stats.completed, stats.failed) == (len(nests), 0)
        assert set(glob.glob("/dev/shm/psm_*")) - segments == set()
