"""Tests for the :class:`repro.api.Session` façade and its lifecycle.

The acceptance contract of the API redesign: one session serves
analyze → run → map across every execution mode, reusing a single warm
executor (in ``shared`` mode: one worker-pool spin-up for the whole
session) and one analysis cache, and tears shared-memory state down
deterministically on exit.
"""

import glob
import os

import pytest

from repro.api import Session, SessionConfig
from repro.core.cache import AnalysisCache
from repro.exceptions import ExecutionError, WorkloadError
from repro.runtime.arrays import store_for_nest
from repro.runtime.executor import EXECUTION_MODES
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1, example_4_2

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="segment accounting is checked via /dev/shm"
)


def _segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _reference_store(nest):
    store = store_for_nest(nest)
    execute_nest(nest, store)
    return store


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig()
        assert config.mode == "serial"
        assert config.use_cache is True
        assert config.verify == "never"

    def test_invalid_mode_rejected(self):
        with pytest.raises(WorkloadError, match="execution mode"):
            SessionConfig(mode="warp")

    def test_invalid_placement_rejected(self):
        with pytest.raises(WorkloadError, match="placement"):
            SessionConfig(placement="middle")

    def test_invalid_verify_rejected(self):
        with pytest.raises(WorkloadError, match="verify"):
            SessionConfig(verify="sometimes")

    def test_invalid_counts_rejected(self):
        with pytest.raises(WorkloadError):
            SessionConfig(workers=0)
        with pytest.raises(WorkloadError):
            SessionConfig(cache_size=0)

    def test_keyword_overrides(self):
        session = Session(SessionConfig(mode="shared"), workers=7)
        assert session.config.mode == "shared"
        assert session.config.workers == 7
        session.close()


class TestOneSessionServesEverything:
    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_analyze_run_map_share_one_executor_and_cache(self, mode):
        nest = example_4_1(4)
        reference = _reference_store(nest)
        with Session(mode=mode, backend="compiled", workers=2) as session:
            analysis = session.analyze(nest)
            assert analysis.partitions == 2
            assert not analysis.cache_hit

            first = session.run(example_4_1(4))
            assert reference.identical(first.store)
            assert first.cache_hit  # analysis resolved from the session cache
            executor = session._executor
            assert executor is not None

            results = session.map([example_4_1(4), example_4_2(4)], repeat=2)
            assert len(results) == 4
            assert session._executor is executor  # never rebuilt
            for result in results:
                if mode == "native-parallel":
                    # The compiled backend has no in-kernel driver: one
                    # serial call, reported as such.
                    assert result.fallback.startswith("serial run: ")
                    assert (result.workers, result.threads) == (1, 0)
                else:
                    assert result.fallback is None

            stats = session.stats()
            assert stats.executor_creations == 1
            assert stats.cache_hit_rate > 0
            assert stats.analyses == 1 + 1 + 4
            assert stats.runs == 5

    @needs_dev_shm
    def test_shared_mode_pool_spins_up_once_and_tears_down(self):
        before = _segments()
        nest = example_4_1(4)
        reference = _reference_store(nest)
        with Session(mode="shared", backend="compiled", workers=2) as session:
            first = session.run(nest)
            assert reference.identical(first.store)
            pool = session._executor._pool
            assert pool is not None and pool.started

            results = session.map([nest], repeat=3)
            assert session._executor._pool is pool  # one spin-up per session
            assert pool.alive_workers() == 2
            assert all(reference.identical(r.store) for r in results)
            assert session.stats().pool_workers_alive == 2
        # deterministic teardown: no shared-memory segments left behind
        assert _segments() == before

    def test_repeated_map_hits_cache_and_program_lru(self):
        with Session(mode="serial", backend="compiled") as session:
            session.map([example_4_1(4)], repeat=3)
            stats = session.stats()
            assert stats.cache_misses == 1
            assert stats.cache_hits == 2
            assert stats.programs_cached == 1
            assert session.cache.stats.hit_rate == pytest.approx(2 / 3)


class TestSessionBehavior:
    def test_closed_session_rejects_execution(self):
        session = Session()
        session.close()
        with pytest.raises(ExecutionError, match="closed"):
            session.run(example_4_1(4))

    def test_close_is_idempotent(self):
        session = Session(mode="shared", workers=2)
        session.run(example_4_1(4))
        session.close()
        session.close()

    def test_injected_cache_is_used(self):
        cache = AnalysisCache()
        with Session(cache=cache) as session:
            session.analyze(example_4_1(4))
        assert cache.stats.misses == 1

    def test_use_cache_false_disables_cache(self):
        with Session(use_cache=False) as session:
            assert session.cache is None
            a1 = session.analyze(example_4_1(4))
            a2 = session.analyze(example_4_1(4))
        assert not a1.cache_hit and not a2.cache_hit

    def test_verify_policy_always(self):
        with Session(verify="always") as session:
            result = session.run(example_4_1(4))
        assert result.max_abs_difference == 0.0
        assert result.verified is True

    def test_verify_override_per_run(self):
        with Session() as session:
            unchecked = session.run(example_4_1(4))
            checked = session.run(example_4_1(4), verify=True)
        assert unchecked.max_abs_difference is None
        assert unchecked.verified is None
        assert checked.verified is True

    def test_caller_store_is_used_and_mutated(self):
        nest = example_4_1(4)
        store = store_for_nest(nest)
        with Session() as session:
            result = session.run(nest, store=store)
        assert result.store is store
        assert _reference_store(nest).identical(store)

    def test_verify_with_caller_store_snapshots_initial_contents(self):
        nest = example_4_1(4)
        store = store_for_nest(nest, initializer="random", seed=3)
        expected = store.copy()
        execute_nest(nest, expected)
        with Session(verify="always") as session:
            result = session.run(nest, store=store)
        assert result.verified is True
        assert expected.identical(store)

    def test_placement_override(self):
        with Session() as session:
            outer = session.run(example_4_1(4))
            inner = session.run(example_4_1(4), placement="inner")
        assert outer.report.placement == "outer"
        assert inner.report.placement == "inner"
        assert _reference_store(example_4_1(4)).identical(inner.store)

    def test_map_names_must_align(self):
        with Session() as session:
            with pytest.raises(WorkloadError, match="names"):
                session.map([example_4_1(4)], names=["a", "b"])

    def test_map_results_in_input_order_and_verified(self):
        sources = [
            example_4_1(6),
            "loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 1.0",
            example_4_2(6),
        ]
        with Session(backend="compiled", verify="always") as session:
            results = session.map(sources, names=[None, "ramp", None])
        assert [result.name for result in results] == [
            sources[0].name, "ramp", sources[2].name
        ]
        assert [result.verified for result in results] == [True, True, True]

    def test_map_empty_batch(self):
        with Session() as session:
            assert session.map([]) == []
            assert session.stats().runs == 0

    def test_uniform_sources_everywhere(self, tmp_path):
        path = tmp_path / "ex.loop"
        path.write_text("loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 1.0\n")
        text = "loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 1.0"
        with Session() as session:
            from_file = session.run(str(path))
            from_text = session.run(text)
            from_factory = session.run(example_4_1, n=4)
        assert from_file.iterations == from_text.iterations == 6
        assert from_factory.iterations == example_4_1(4).iteration_count()
        # file and text spell the same structure: one analysis, one hit
        assert session.cache.stats.hits >= 1


class TestNamedDelegations:
    """A run whose engine is not the session's backend says so, and why."""

    def test_vectorized_names_a_narrow_schedule(self):
        with Session(backend="vectorized") as session:
            result = session.run(example_4_2(12), verify=True)
        assert result.max_abs_difference == 0.0
        assert result.backend == "compiled"
        assert result.fallback == (
            "compiled run: a narrow schedule of 4 chunks, under min_parallel_width 8"
        )

    def test_own_engine_names_nothing(self):
        with Session(backend="vectorized") as session:
            result = session.run(example_4_1(12))
        assert result.backend == "vectorized"
        assert result.fallback is None

    def test_native_without_an_engine_names_the_engine_that_ran(self, monkeypatch):
        from repro.codegen import native as native_codegen

        monkeypatch.setenv(native_codegen.ENGINE_ENV, "none")
        with Session(backend="native") as session:
            wide = session.run(example_4_1(12))
            narrow = session.run(example_4_2(12))
        assert (wide.backend, wide.fallback) == ("vectorized", "vectorized run: no native engine")
        assert narrow.backend == "compiled"
        assert narrow.fallback == (
            "compiled run: no native engine; "
            "a narrow schedule of 4 chunks, under min_parallel_width 8"
        )
