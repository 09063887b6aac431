"""Native backend: bit-identical to the interpreter, with graceful fallback.

The native backend compiles plans to machine code (C + ctypes), so its
differential contract is checked the same way as every other backend —
``ArrayStore.identical`` (``np.array_equal``, no tolerance) against the
interpreter reference — across:

* the workload suite and seeded random nests,
* all three executor modes (serial / shared / native-parallel),
* plain and coalesced plan spaces,
* every error path (window violations, division by zero, domain errors
  must raise the same exception types as the interpreter),
* and the fallback to the vectorized backend when there is no engine,
  the engine is switched off or misspelled, the kernel build fails, or the
  body uses an unsupported expression (the compiler is monkeypatched away,
  so this leg runs even on machines that do have a C compiler).
"""

import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import ExecutionError
from repro.loopnest.builder import loop_nest
from repro.plan import optimize_plan
from repro.runtime.arrays import ArrayStore, OffsetArray, store_for_nest
from repro.runtime.backends import NativeBackend
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

ROOT = Path(__file__).resolve().parents[2]
SUITE = workload_suite(5)
SUITE_IDS = [case.name for case in SUITE]

HAVE_ENGINE = native_codegen.resolve_engine() is not None
needs_engine = pytest.mark.skipif(
    not HAVE_ENGINE, reason="no native engine (a C compiler) available"
)
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="shared mode needs /dev/shm"
)


def _reference_and_transformed(nest, placement=None):
    kwargs = {"placement": placement} if placement else {}
    transformed = TransformedLoopNest.from_report(analyze_nest(nest, **kwargs))
    base = store_for_nest(nest)
    ref = base.copy()
    execute_nest(nest, ref)
    return base, ref, transformed


def _no_compiler(monkeypatch):
    """Make the C engine unavailable, regardless of the host toolchain."""
    monkeypatch.setattr(native_codegen, "_find_c_compiler", lambda: None)
    native_codegen.clear_kernel_cache()


# ---------------------------------------------------------------------------
# differential: suite, random nests, executor modes, plan spaces
# ---------------------------------------------------------------------------

class TestNativeDifferential:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_suite_bit_identical(self, case):
        base, ref, transformed = _reference_and_transformed(case.nest)
        result = base.copy()
        NativeBackend().execute(transformed, result)
        assert ref.identical(result), (
            f"native diverged on {case.name!r}: "
            f"max |diff| = {ref.max_abs_difference(result):.3e}"
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_nests(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 8))
        a, b = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        scale = float(rng.integers(1, 5)) / 4.0
        nest = (
            loop_nest(f"native-random-{seed}")
            .loop("i1", 0, n)
            .loop("i2", 0, n)
            .statement(f"A[i1, i2] = A[i1 - {a}, i2 - {b}] * {scale} + B[i1, i2]")
            .statement(f"C[i1, i2] = sin(C[i1 - 1, i2]) + {scale}")
            .build()
        )
        base = store_for_nest(nest, initializer="random", seed=seed)
        ref = base.copy()
        execute_nest(nest, ref)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        result = base.copy()
        NativeBackend().execute(transformed, result)
        assert ref.identical(result), (seed, nest.name)

    @pytest.mark.parametrize("mode", ["serial", "native-parallel"])
    def test_executor_modes(self, mode):
        for nest in (example_4_1(8), example_4_2(6)):
            base, ref, transformed = _reference_and_transformed(nest)
            result = base.copy()
            outcome = ParallelExecutor(mode=mode, workers=4, backend="native").run(
                transformed, result
            )
            assert ref.identical(result), (mode, nest.name)
            assert outcome.num_chunks > 0

    @needs_dev_shm
    def test_shared_mode(self):
        nest = example_4_1(8)
        base, ref, transformed = _reference_and_transformed(nest)
        result = base.copy()
        executor = ParallelExecutor(mode="shared", workers=2, backend="native")
        try:
            executor.run(transformed, result)
        finally:
            executor.close()
        assert ref.identical(result)

    @pytest.mark.parametrize("passes", [("coalesce",), ()])
    def test_optimized_plan_spaces(self, passes):
        nest = example_4_1(8)
        base, ref, transformed = _reference_and_transformed(nest)
        plan, _ = optimize_plan(transformed.execution_plan(), transformed, passes=passes)
        result = base.copy()
        NativeBackend().execute_plan(transformed, plan, result)
        assert ref.identical(result), passes


# ---------------------------------------------------------------------------
# errors must match the interpreter's exception types
# ---------------------------------------------------------------------------

@needs_engine
class TestNativeErrors:
    def _transformed(self, nest):
        return TransformedLoopNest.from_report(analyze_nest(nest))

    def test_division_by_zero(self):
        nest = (
            loop_nest("native-divzero")
            .loop("i1", 0, 4)
            .loop("i2", -2, 2)
            .statement("A[i1, i2] = B[i1, i2] + 1.0 / (i2)")
            .build()
        )
        store = store_for_nest(nest)
        with pytest.raises(ZeroDivisionError):
            execute_nest(nest, store.copy())
        backend = NativeBackend()
        with pytest.raises(ZeroDivisionError):
            backend.execute(self._transformed(nest), store.copy())
        assert backend.stats["fallback_runs"] == 0

    def test_math_domain_error(self):
        nest = (
            loop_nest("native-domain")
            .loop("i1", -3, 3)
            .statement("A[i1] = sqrt((i1))")
            .build()
        )
        store = store_for_nest(nest)
        with pytest.raises(ValueError):
            execute_nest(nest, store.copy())
        with pytest.raises(ValueError):
            NativeBackend().execute(self._transformed(nest), store.copy())

    def test_window_violation(self):
        nest = (
            loop_nest("native-window")
            .loop("i1", 0, 5)
            .statement("A[i1] = A[i1 - 1] + 1.0")
            .build()
        )
        # A window that misses A[-1]: the interpreter raises ExecutionError
        # on the out-of-window read, and so must the native kernel.
        def tight_store():
            store = ArrayStore()
            store["A"] = OffsetArray.from_window([0], [5])
            return store

        with pytest.raises(ExecutionError):
            execute_nest(nest, tight_store())
        with pytest.raises(ExecutionError):
            NativeBackend().execute(self._transformed(nest), tight_store())


# ---------------------------------------------------------------------------
# fallback: no engine, disabled engine, failed build, unsupported expressions
# ---------------------------------------------------------------------------

class TestNativeFallback:
    def test_no_engine_falls_back_to_vectorized(self, monkeypatch):
        _no_compiler(monkeypatch)
        assert native_codegen.resolve_engine() is None
        nest = example_4_1(6)
        base, ref, transformed = _reference_and_transformed(nest)
        backend = NativeBackend()
        result = base.copy()
        label = backend.execute_plan(transformed, transformed.execution_plan(), result)
        assert ref.identical(result)
        assert backend.stats["fallback_runs"] == 1
        assert backend.stats["native_runs"] == 0
        assert label in ("vectorized", "compiled")
        native_codegen.clear_kernel_cache()

    def test_engine_env_disables_native(self, monkeypatch):
        monkeypatch.setenv(native_codegen.ENGINE_ENV, "none")
        assert native_codegen.resolve_engine() is None
        nest = example_4_1(6)
        base, ref, transformed = _reference_and_transformed(nest)
        backend = NativeBackend()
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result)
        assert backend.stats["fallback_runs"] == 1

    @pytest.mark.parametrize("value", ["ccc", "numba"])
    def test_unknown_engine_name_disables_native(self, value, monkeypatch):
        # A misspelled or removed engine name selects no engine; it must not
        # silently mean "auto".
        monkeypatch.setenv(native_codegen.ENGINE_ENV, value)
        assert native_codegen.resolve_engine() is None
        nest = example_4_1(6)
        base, ref, transformed = _reference_and_transformed(nest)
        backend = NativeBackend()
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result)
        assert backend.stats["fallback_runs"] == 1
        result = base.copy()
        outcome = ParallelExecutor(mode="native-parallel", workers=2, backend="native").run(
            transformed, result
        )
        assert ref.identical(result)
        assert outcome.fallback == "serial run: no native engine"

    @needs_engine
    @pytest.mark.parametrize(
        "value", ["", "auto", "cc", " CC "], ids=["empty", "auto", "cc", "padded-upper"]
    )
    def test_engine_env_values_that_use_the_compiler(self, value, monkeypatch):
        monkeypatch.setenv(native_codegen.ENGINE_ENV, value)
        assert native_codegen.resolve_engine() == "cc"

    def test_engine_argument_is_gone(self):
        with pytest.raises(TypeError):
            NativeBackend(engine="cc")

    @needs_engine
    def test_unusable_kernel_cache_falls_back(self, tmp_path, monkeypatch):
        # A regular file where the cache directory should be: the build
        # fails, the failure is cached and named, and the run falls back.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv(native_codegen.CACHE_DIR_ENV, str(blocker))
        native_codegen.clear_kernel_cache()
        try:
            with Session(backend="native") as session:
                result = session.run(
                    ROOT / "examples" / "loops" / "example41.loop", verify=True
                )
            assert result.max_abs_difference == 0.0
            assert not result.backend.startswith("native-")
            error = native_codegen.last_build_error()
            assert str(blocker) in error and "FileExistsError" in error
            # The failure is cached: later lookups do not retry the build.
            nest = example_4_1(6)
            base, ref, transformed = _reference_and_transformed(nest)
            before = native_codegen.kernel_cache_info()
            for _ in range(2):
                assert native_codegen.native_program_for(transformed) is None
            info = native_codegen.kernel_cache_info()
            assert info["builds"] == 0 and info["misses"] == before["misses"]
            result = base.copy()
            outcome = ParallelExecutor(
                mode="native-parallel", workers=2, backend="native"
            ).run(transformed, result)
            assert ref.identical(result)
            assert outcome.fallback == "serial run: the native kernel build failed"
        finally:
            native_codegen.clear_kernel_cache()

    def test_unsupported_expression_falls_back(self):
        # Floor division has integer semantics the all-double kernel cannot
        # reproduce exactly; the support check rejects it up front.
        nest = (
            loop_nest("native-floordiv")
            .loop("i1", 1, 6)
            .statement("A[i1] = B[i1] + (i1) // 2")
            .build()
        )
        assert not native_codegen.nest_is_native_supported(nest)
        base, ref, transformed = _reference_and_transformed(nest)
        backend = NativeBackend()
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result)
        assert backend.stats["fallback_runs"] == 1

    def test_executor_modes_with_no_engine(self, monkeypatch):
        _no_compiler(monkeypatch)
        nest = example_4_1(6)
        base, ref, transformed = _reference_and_transformed(nest)
        for mode in ("serial", "native-parallel"):
            result = base.copy()
            outcome = ParallelExecutor(mode=mode, workers=2, backend="native").run(
                transformed, result
            )
            assert ref.identical(result), mode
            assert outcome.backend in ("vectorized", "compiled"), mode
        assert outcome.fallback == "serial run: no native engine"
        native_codegen.clear_kernel_cache()


# ---------------------------------------------------------------------------
# kernel cache: canonical sharing, LRU bounds, pickling, setup accounting
# ---------------------------------------------------------------------------

@needs_engine
class TestKernelCache:
    def _renamed_pair(self):
        def build(index, array):
            return (
                loop_nest(f"renamed-{index}-{array}")
                .loop(index, 1, 8)
                .statement(f"{array}[{index}] = {array}[{index} - 1] * 0.5 + 1.0")
                .build()
            )

        return build("i1", "A"), build("k1", "Z")

    def test_alpha_renamed_nests_share_one_kernel(self):
        native_codegen.clear_kernel_cache()
        first, second = self._renamed_pair()
        for nest in (first, second):
            program = native_codegen.native_program_for(
                TransformedLoopNest.from_report(analyze_nest(nest))
            )
            assert program is not None
        info = native_codegen.kernel_cache_info()
        assert info["size"] == 1
        assert info["builds"] == 1
        assert info["hits"] == 1
        native_codegen.clear_kernel_cache()

    def test_one_program_at_two_sizes_shares_one_kernel(self):
        # The kernel reads the statements, depth and inverse, never the
        # bounds: a second problem size must hit the first size's kernel.
        native_codegen.clear_kernel_cache()
        try:
            for n in (6, 9):
                transformed = TransformedLoopNest.from_report(analyze_nest(example_4_1(n)))
                assert native_codegen.native_program_for(transformed) is not None
            info = native_codegen.kernel_cache_info()
            assert (info["builds"], info["hits"], info["size"]) == (1, 1, 1)
        finally:
            native_codegen.clear_kernel_cache()

    def test_lru_eviction(self):
        native_codegen.clear_kernel_cache()
        native_codegen.set_kernel_cache_limit(1)
        try:
            programs = [
                (
                    loop_nest(f"evict-{k}")
                    .loop("i1", 1, 6)
                    .statement(f"A[i1] = A[i1 - 1] + {float(k + 1)}")
                    .build()
                )
                for k in range(3)
            ]
            for nest in programs:
                transformed = TransformedLoopNest.from_report(analyze_nest(nest))
                assert native_codegen.native_program_for(transformed) is not None
            info = native_codegen.kernel_cache_info()
            assert info["size"] == 1
            assert info["evictions"] == 2
            # Evicted kernels rebuild correctly (the disk artifact survives).
            base, ref, transformed = _reference_and_transformed(programs[0])
            result = base.copy()
            NativeBackend().execute(transformed, result)
            assert ref.identical(result)
        finally:
            native_codegen.set_kernel_cache_limit(64)
            native_codegen.clear_kernel_cache()

    def test_compiler_lookup_is_memoized(self, monkeypatch):
        # Every native_program_for resolves the engine; the C compiler's
        # PATH search runs once, not on every request, and
        # clear_kernel_cache() forgets it like the other toolchain probes.
        import shutil

        calls = []
        real_which = shutil.which

        def counting_which(name, *args, **kwargs):
            calls.append(name)
            return real_which(name, *args, **kwargs)

        monkeypatch.setattr(shutil, "which", counting_which)
        for mode in ("serial", "native-parallel"):
            with Session(mode=mode, backend="native", workers=2) as session:
                session.run(example_4_1(8))
                calls.clear()
                session.run(example_4_1(8))
            assert calls == [], mode
        native_codegen.clear_kernel_cache()
        native_codegen._find_c_compiler()
        assert calls

    def test_backend_pickles_without_kernel_state(self):
        backend = NativeBackend()
        nest = example_4_1(6)
        base, ref, transformed = _reference_and_transformed(nest)
        backend.execute(transformed, base.copy())
        clone = pickle.loads(pickle.dumps(backend))
        result = base.copy()
        clone.execute(transformed, result)
        assert ref.identical(result)

    def test_compile_time_lands_in_setup(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native_codegen.CACHE_DIR_ENV, str(tmp_path))
        native_codegen.clear_kernel_cache()
        nest = example_4_1(8)
        base, ref, transformed = _reference_and_transformed(nest)
        backend = NativeBackend()
        outcome = ParallelExecutor(mode="serial", backend=backend).run(
            transformed, base.copy()
        )
        assert backend.stats["compile_seconds"] > 0
        assert outcome.setup_seconds >= backend.stats["compile_seconds"]
        assert outcome.backend.startswith("native-")
        # Warm second run: no further compilation.
        compile_before = backend.stats["compile_seconds"]
        ParallelExecutor(mode="serial", backend=backend).run(transformed, base.copy())
        assert backend.stats["compile_seconds"] - compile_before < compile_before
        native_codegen.clear_kernel_cache()


# ---------------------------------------------------------------------------
# session integration
# ---------------------------------------------------------------------------

class TestSessionIntegration:
    def test_session_runs_native_backend(self):
        nest = example_4_1(8)
        ref = store_for_nest(nest)
        execute_nest(nest, ref)
        with Session(mode="serial", backend="native") as session:
            result = session.run(nest, verify=True)
        assert result.max_abs_difference == 0.0
        assert result.execution.num_chunks > 0

    @needs_engine
    def test_session_reuses_warm_kernels(self):
        native_codegen.clear_kernel_cache()
        with Session(mode="serial", backend="native") as session:
            session.run(example_4_1(6))
        builds_first = native_codegen.kernel_cache_info()["builds"]
        with Session(mode="serial", backend="native") as session:
            session.run(example_4_1(6))
        info = native_codegen.kernel_cache_info()
        assert info["builds"] == builds_first  # same program, new session
        assert info["hits"] > 0
        native_codegen.clear_kernel_cache()
