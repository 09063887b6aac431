"""Differential test harness: every execution backend vs. the interpreter.

The interpreter (:func:`repro.runtime.interpreter.execute_nest`) is the
semantic reference.  Every registered backend — and every executor mode on
top of every backend — must produce **bit-identical** final array stores on:

* the full workload suite (:func:`repro.workloads.suite.workload_suite`),
* randomized synthetic nests drawn from a seeded RNG (uniform-distance,
  coupled variable-distance and 4.1-style anti-diagonal patterns).

``ArrayStore.identical`` compares with ``np.array_equal`` — no tolerance.
"""

import warnings

import numpy as np
import pytest

from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.dependence.graph import enumerate_dependence_edges
from repro.exceptions import ExecutionError
from repro.loopnest.builder import loop_nest
from repro.plan import optimize_plan
from repro.runtime.arrays import OffsetArray, store_for_nest
from repro.runtime.backends import (
    CompiledBackend,
    ExecutionBackend,
    InterpreterBackend,
    VectorizedBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

SUITE = workload_suite(5)
SUITE_IDS = [case.name for case in SUITE]

# The vectorized backend is exercised twice: with its default width
# threshold (narrow schedules delegate to the compiled body) and with the
# round path forced, so cross-chunk vectorization is covered even on the
# small suite sizes.
BACKEND_VARIANTS = [
    ("interpreter", {}),
    ("compiled", {}),
    ("vectorized", {}),
    ("vectorized", {"min_parallel_width": 2}),
    ("native", {}),
]
VARIANT_IDS = ["interpreter", "compiled", "vectorized", "vectorized-forced", "native"]


class ChunkOnlyBackend(ExecutionBackend):
    """Implements nothing but ``execute_chunk``: the base ``execute_plan``
    must carry it through every executor mode (module level, so shared-mode
    workers can unpickle it)."""

    name = "chunk-only"

    def execute_chunk(self, transformed, chunk, store):
        InterpreterBackend().execute_chunk(transformed, chunk, store)


def _reference_and_transformed(nest):
    reference = store_for_nest(nest)
    execute_nest(nest, reference.copy())  # warm sanity: must not raise
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    base = store_for_nest(nest)
    ref = base.copy()
    execute_nest(nest, ref)
    return base, ref, transformed


class TestWorkloadSuiteDifferential:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    @pytest.mark.parametrize(
        "backend_name, options", BACKEND_VARIANTS, ids=VARIANT_IDS
    )
    def test_backend_matches_interpreter_reference(self, case, backend_name, options):
        base, ref, transformed = _reference_and_transformed(case.nest)
        backend = get_backend(backend_name, **options)
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result), (
            f"backend {backend_name!r} ({options}) diverged on {case.name!r}: "
            f"max |diff| = {ref.max_abs_difference(result):.3e}"
        )
        if backend_name == "vectorized" and options:
            # The forced round path checks chunk independence exactly on
            # every run: the analysis's chunks never need the safety net.
            assert backend.stats["illegal_schedule_fallbacks"] == 0, case.name

    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_no_dependence_crosses_a_chunk(self, case):
        # The premise that lets every backend reorder chunks (Lemma 1 /
        # Theorem 2), checked against the exact dependence edges instead of
        # through a backend: both ends of every flow, anti and output
        # dependence lie in one chunk of the plan.
        _, _, transformed = _reference_and_transformed(case.nest)
        plan = transformed.execution_plan()
        for edge in enumerate_dependence_edges(case.nest):
            source = plan.key_of(transformed.new_iteration(edge.source))
            sink = plan.key_of(transformed.new_iteration(edge.sink))
            assert source == sink, (case.name, edge)

    @pytest.mark.parametrize("mode", ["serial", "native-parallel"])
    @pytest.mark.parametrize(
        "backend_name", ["interpreter", "compiled", "vectorized", "native"]
    )
    def test_executor_modes_per_backend(self, mode, backend_name):
        for case in SUITE[:6]:
            base, ref, transformed = _reference_and_transformed(case.nest)
            result = base.copy()
            backend = get_backend(backend_name)
            outcome = ParallelExecutor(mode=mode, workers=4, backend=backend).run(
                transformed, result
            )
            # The result reports the engine that actually ran: a vectorized
            # run may fall back dynamically to the compiled body, and a
            # native run reports its engine ("native-cc", "native-cc-openmp",
            # ...) — or whatever it fell back to when the program isn't
            # native.
            if backend_name == "native":
                assert outcome.backend.split("-")[0] in (
                    "native", "vectorized", "compiled"
                )
            elif backend_name == "vectorized":
                assert outcome.backend in ("vectorized", "compiled")
            else:
                assert outcome.backend == backend_name
            assert ref.identical(result), (mode, backend_name, case.name)

    @pytest.mark.parametrize("backend_name", ["compiled", "vectorized", "native"])
    def test_shared_mode_per_backend(self, backend_name):
        nest = example_4_2(4)
        base, ref, transformed = _reference_and_transformed(nest)
        result = base.copy()
        with ParallelExecutor(mode="shared", workers=2, backend=backend_name) as executor:
            outcome = executor.run(transformed, result)
        assert outcome.fallback is None
        assert ref.identical(result)


# ---------------------------------------------------------------------------
# native-parallel without an in-kernel driver: one serial call, reported
# ---------------------------------------------------------------------------

#: Backends with no in-kernel driver for any plan; the native one runs with
#: its engine switched off through the environment.
DRIVERLESS = [
    ("interpreter", lambda: get_backend("interpreter")),
    ("compiled", lambda: get_backend("compiled")),
    ("vectorized", lambda: get_backend("vectorized")),
    ("vectorized-forced", lambda: get_backend("vectorized", min_parallel_width=2)),
    ("chunk-only", lambda: ChunkOnlyBackend()),
    ("native-no-engine", lambda: get_backend("native")),
]


class _EmptyPlan:
    """The smallest plan with no chunks: its key table has no rows, and its
    sizes, selections and iteration count are empty."""

    total_iterations = 0

    def key_table(self):
        return np.empty((0, 2), dtype=np.int64)

    def chunk_sizes(self):
        return ()

    def select_chunks(self, chunk_indices=None):
        return []


class TestNativeParallelWithoutDriver:
    @pytest.mark.parametrize(
        "name, make_backend", DRIVERLESS, ids=[name for name, _ in DRIVERLESS]
    )
    def test_runs_like_serial_and_names_the_fallback(
        self, name, make_backend, monkeypatch
    ):
        if name == "native-no-engine":
            monkeypatch.setenv(native_codegen.ENGINE_ENV, "none")
            reason = "no native engine"
        else:
            reason = f"backend {make_backend().name!r} has no in-kernel parallel driver"
        for case in SUITE[:6]:
            base, ref, transformed = _reference_and_transformed(case.nest)
            serial_store, result = base.copy(), base.copy()
            serial = ParallelExecutor(mode="serial", backend=make_backend()).run(
                transformed, serial_store
            )
            outcome = ParallelExecutor(
                mode="native-parallel", workers=4, backend=make_backend()
            ).run(transformed, result)
            assert ref.identical(result), (name, case.name)
            assert outcome.fallback == f"serial run: {reason}", case.name
            assert (outcome.workers, outcome.threads, outcome.engine) == (1, 0, None)
            # The engine that ran, exactly as a serial run reports it.
            assert outcome.backend == serial.backend, (name, case.name)

    def test_empty_plan_has_no_fallback(self):
        transformed = TransformedLoopNest.from_report(analyze_nest(example_4_1(4)))
        outcome = ParallelExecutor(mode="native-parallel", workers=4).run(
            transformed, store_for_nest(example_4_1(4)), plan=_EmptyPlan()
        )
        assert outcome.fallback is None
        assert (outcome.num_chunks, outcome.workers, outcome.threads) == (0, 1, 0)
        assert (outcome.chunk_sizes, outcome.total_iterations) == ((), 0)


# ---------------------------------------------------------------------------
# zero divisors: the interpreter's exception on every backend and mode
# ---------------------------------------------------------------------------

#: Each body divides by ``i2 - 5``, which is zero halfway along every row
#: chunk.  An array-read numerator makes the interpreter divide a NumPy
#: float64, which by itself would warn and store inf/nan instead of raising.
ZERO_DIVISOR_BODIES = [
    "A[i1, i2] = A[i1, i2 - 1] / (i2 - 5)",
    "A[i1, i2] = A[i1, i2 - 1] // (i2 - 5)",
    "A[i1, i2] = A[i1, i2 - 1] % (i2 - 5)",
    "A[i1, i2] = A[i1, i2 - 1] * 0.5 + 1.0 / (i2 - 5)",
]


class TestZeroDivisor:
    @pytest.mark.parametrize("body", ZERO_DIVISOR_BODIES)
    @pytest.mark.parametrize("mode", ["serial", "shared", "native-parallel"])
    @pytest.mark.parametrize(
        "backend_name", ["interpreter", "compiled", "vectorized", "native"]
    )
    def test_raises_like_the_interpreter(self, backend_name, mode, body):
        # Ten row chunks: enough for the vectorized backend to run rounds.
        nest = (
            loop_nest("zero-divisor")
            .loop("i1", 0, 9)
            .loop("i2", 1, 9)
            .statement(body)
            .build()
        )
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        base = store_for_nest(nest)
        reference, result = base.copy(), base.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning fails
            with pytest.raises(ZeroDivisionError):
                execute_nest(nest, base.copy())
            with pytest.raises(ZeroDivisionError):
                ParallelExecutor(backend="interpreter").run(transformed, reference)
            with ParallelExecutor(mode=mode, workers=2, backend=backend_name) as executor:
                with pytest.raises(ZeroDivisionError):
                    executor.run(transformed, result)
        assert not reference.identical(base)  # the error came mid-run
        if mode == "serial":
            # The interpreter's partial writes, cell for cell.
            assert reference.identical(result)
        elif mode == "shared":
            # Workers wrote into shared segments that are never copied back.
            assert base.identical(result)


# ---------------------------------------------------------------------------
# randomized synthetic nests (seeded)
# ---------------------------------------------------------------------------

def _random_nest(rng: np.random.Generator):
    """A random but analyzable 2-deep nest with genuine dependences."""
    n = int(rng.integers(4, 8))
    pattern = int(rng.integers(0, 3))
    if pattern == 0:
        # uniform distance recurrence
        a, b = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        body = f"A[i1, i2] = A[i1 - {a}, i2 - {b}] * 0.5 + {float(rng.integers(1, 4))}"
    elif pattern == 1:
        # coupled 1-D subscript: variable distances
        p, q = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        body = f"A[{p}*i1 + i2] = A[{p}*i1 + i2 - {q}] + B[i1, i2]"
    else:
        # 4.1-style anti-diagonal flip
        a = 2 * int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        body = f"A[i1, i2] = A[-i1 - {a}, {m}*i1 + i2 + {a}] + 1.0"
    lo = int(rng.integers(-3, 1))
    builder = loop_nest(f"random-{pattern}").loop("i1", lo, lo + n).loop("i2", lo, lo + n)
    builder.statement(body)
    if rng.integers(0, 2):
        # B is read 2-D everywhere, so its window stays consistent no matter
        # which pattern the first statement drew for A.
        builder.statement("C[i1, i2] = C[i1 - 2, i2] + B[i1, i2] * 0.25")
    return builder.build()


class TestRandomizedDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_nests_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        nest = _random_nest(rng)
        base, ref, transformed = _reference_and_transformed(nest)
        for backend_name, options in BACKEND_VARIANTS:
            backend = get_backend(backend_name, **options)
            result = base.copy()
            backend.execute(transformed, result)
            assert ref.identical(result), (seed, nest.name, backend_name, options)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_initial_contents(self, seed):
        nest = _random_nest(np.random.default_rng(100 + seed))
        base = store_for_nest(nest, initializer="random", seed=seed)
        ref = base.copy()
        execute_nest(nest, ref)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        for backend_name, options in BACKEND_VARIANTS:
            result = base.copy()
            get_backend(backend_name, **options).execute(transformed, result)
            assert ref.identical(result), (seed, backend_name)


# ---------------------------------------------------------------------------
# chunk selections: execute_plan(transformed, plan, store, chunk_indices)
# ---------------------------------------------------------------------------

class TestChunkSelections:
    """Pool workers and the gateway's per-group jobs run a plan one
    selection of chunk positions at a time.  Chunks are pairwise
    independent (Lemma 1 / Theorem 2), so any split of the positions,
    executed selection by selection in any order on one store, must equal
    the whole run bit for bit."""

    @pytest.mark.parametrize(
        "backend_name, options", BACKEND_VARIANTS, ids=VARIANT_IDS
    )
    def test_balanced_groups_compose_to_whole_run(self, backend_name, options):
        backend = get_backend(backend_name, **options)
        for case in SUITE:
            base, ref, transformed = _reference_and_transformed(case.nest)
            plan = transformed.execution_plan()
            # LPT groups hold scattered, non-monotone positions.
            groups = ParallelExecutor(workers=3).groups_for(plan.chunk_sizes())
            assert sorted(i for group in groups for i in group) == list(
                range(plan.chunk_count)
            )
            result = base.copy()
            for group in reversed(groups):
                label = backend.execute_plan(
                    transformed, plan, result, chunk_indices=group
                )
                assert isinstance(label, str)
            assert ref.identical(result), (backend_name, options, case.name)
        if backend_name == "vectorized" and options:
            # Every multi-chunk group ran the exact independence check.
            assert backend.stats["illegal_schedule_fallbacks"] == 0

    @pytest.mark.parametrize(
        "backend_name, options", BACKEND_VARIANTS, ids=VARIANT_IDS
    )
    def test_single_chunks_in_reverse_order(self, backend_name, options):
        # Example 4.1 partitions into two labels; its coalesced plan folds
        # them and blocks the fronts, so both chunk shapes are covered.
        nest = example_4_1(24)
        base, ref, transformed = _reference_and_transformed(nest)
        raw = transformed.execution_plan()
        coalesced, _ = optimize_plan(raw, transformed, passes=("coalesce",))
        assert raw.partition_levels and coalesced.chunk_count < raw.chunk_count
        backend = get_backend(backend_name, **options)
        for plan in (raw, coalesced):
            result = base.copy()
            for index in reversed(range(plan.chunk_count)):
                backend.execute_plan(transformed, plan, result, chunk_indices=(index,))
            assert ref.identical(result), (backend_name, options, plan.chunk_count)

    @pytest.mark.parametrize(
        "backend_name, options", BACKEND_VARIANTS, ids=VARIANT_IDS
    )
    def test_empty_selection_writes_nothing(self, backend_name, options):
        nest = example_4_2(4)
        base, _, transformed = _reference_and_transformed(nest)
        result = base.copy()
        label = get_backend(backend_name, **options).execute_plan(
            transformed, transformed.execution_plan(), result, chunk_indices=()
        )
        assert isinstance(label, str)
        assert base.identical(result)


# ---------------------------------------------------------------------------
# backend-specific behavior
# ---------------------------------------------------------------------------

class TestVectorizedBehavior:
    def test_wide_schedule_actually_vectorizes(self):
        nest = example_4_1(8)
        base, ref, transformed = _reference_and_transformed(nest)
        backend = VectorizedBackend(min_parallel_width=2)
        backend.execute(transformed, base.copy())
        assert backend.stats["vectorized_rounds"] > 0
        assert backend.stats["vectorized_iterations"] > backend.stats["fallback_iterations"]

    def test_sequential_nest_falls_back(self):
        # The wavefront has no chunk parallelism: every round is a singleton.
        nest = (
            loop_nest("wavefront")
            .loop("i1", 1, 6)
            .loop("i2", 1, 6)
            .statement("A[i1, i2] = A[i1 - 1, i2] + A[i1, i2 - 1]")
            .build()
        )
        base, ref, transformed = _reference_and_transformed(nest)
        backend = VectorizedBackend(min_parallel_width=2)
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result)
        assert backend.stats["vectorized_rounds"] == 0

    def test_narrow_schedule_delegates_to_compiled(self):
        nest = example_4_2(5)  # 4 chunks < default width threshold
        base, ref, transformed = _reference_and_transformed(nest)
        backend = VectorizedBackend()
        result = base.copy()
        label = backend.execute_plan(transformed, transformed.execution_plan(), result)
        assert ref.identical(result)
        assert backend.stats["delegated_runs"] == 1
        assert backend.stats["rounds"] == 0
        assert label == "compiled"
        # ... and the executor result reports the engine that ran.
        outcome = ParallelExecutor(mode="serial", backend=backend).run(
            transformed, base.copy()
        )
        assert outcome.backend == "compiled"
        wide = example_4_1(8)
        base_w, ref_w, transformed_w = _reference_and_transformed(wide)
        outcome = ParallelExecutor(mode="serial", backend=VectorizedBackend()).run(
            transformed_w, base_w.copy()
        )
        assert outcome.backend == "vectorized"

    def test_division_by_zero_matches_interpreter(self):
        # 1.0 / i2 hits i2 == 0: the interpreter raises ZeroDivisionError,
        # and so must the vectorized backend (NumPy would store inf).
        nest = (
            loop_nest("divzero")
            .loop("i1", 0, 4)
            .loop("i2", -2, 2)
            .statement("A[i1, i2] = B[i1, i2] + 1.0 / (i2)")
            .build()
        )
        store = store_for_nest(nest)
        with pytest.raises(ZeroDivisionError):
            execute_nest(nest, store.copy())
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        backend = VectorizedBackend(min_parallel_width=2)
        with pytest.raises(ZeroDivisionError):
            backend.execute(transformed, store.copy())

    def test_window_violation_replays_chunk_major(self):
        # B's window ends before the last column: the interpreter writes the
        # first row chunk up to it, then raises.  The rounds never start (the
        # window check is up front); the chunk-major replay leaves the same
        # writes.
        nest = (
            loop_nest("window")
            .loop("i1", 0, 9)
            .loop("i2", 1, 9)
            .statement("A[i1, i2] = A[i1, i2 - 1] + B[i1, i2]")
            .build()
        )
        base = store_for_nest(nest)
        base["B"] = OffsetArray((0, 1), (10, 8), fill=2.0)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        reference, result = base.copy(), base.copy()
        with pytest.raises(ExecutionError):
            ParallelExecutor(backend="interpreter").run(transformed, reference)
        backend = VectorizedBackend(min_parallel_width=2)
        with pytest.raises(ExecutionError):
            backend.execute(transformed, result)
        assert backend.stats["error_replays"] == 1
        assert backend.stats["rounds"] == 0
        assert not reference.identical(base)
        assert reference.identical(result)

    def test_round_error_puts_back_its_writes_before_replaying(self):
        # Rows differ in where they hit zero; the rounds write several rows
        # before one raises, and the replay starts from the untouched store.
        nest = (
            loop_nest("row-zero")
            .loop("i1", 0, 9)
            .loop("i2", 1, 9)
            .statement("A[i1, i2] = A[i1, i2 - 1] / (i2 + i1 - 12)")
            .build()
        )
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        base = store_for_nest(nest)
        reference, result = base.copy(), base.copy()
        with pytest.raises(ZeroDivisionError):
            ParallelExecutor(backend="interpreter").run(transformed, reference)
        backend = VectorizedBackend(min_parallel_width=2)
        with pytest.raises(ZeroDivisionError):
            backend.execute(transformed, result)
        assert backend.stats["error_replays"] == 1
        assert backend.stats["vectorized_rounds"] >= 2
        assert reference.identical(result)

    def test_call_expressions_stay_bit_identical(self):
        nest = (
            loop_nest("transcendental")
            .loop("i1", 0, 6)
            .loop("i2", 0, 6)
            .statement("A[i1, i2] = sin(B[i1, i2]) + exp(A[i1, i2] * 0.01) + max(1.0, (i1))")
            .build()
        )
        base, ref, transformed = _reference_and_transformed(nest)
        backend = VectorizedBackend(min_parallel_width=2)
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result)
        assert backend.stats["vectorized_rounds"] > 0

    def test_independence_check_catches_bogus_parallel_levels(self):
        # Deliberately mislabel a recurrence as fully parallel: the dynamic
        # check must detect the cross-chunk conflicts and fall back to
        # chunk-major sequential execution, keeping the result identical to
        # the (identity) transformed order.
        nest = (
            loop_nest("bogus")
            .loop("i1", 0, 6)
            .statement("A[i1] = A[i1 - 1] + 1.0")
            .build()
        )
        transformed = TransformedLoopNest.identity(nest)
        transformed.parallel_levels = (0,)  # wrong on purpose
        base = store_for_nest(nest)
        ref = base.copy()
        execute_nest(nest, ref)
        backend = VectorizedBackend(min_parallel_width=2)
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result)
        assert backend.stats["illegal_schedule_fallbacks"] == 1
        assert backend.stats["vectorized_rounds"] == 0
        # A run names the replay's cause in its fallback.
        outcome = ParallelExecutor(backend=backend).run(transformed, base.copy())
        assert (outcome.backend, outcome.fallback) == (
            "compiled",
            "compiled run: the schedule failed the dynamic independence check",
        )

    def test_independence_check_catches_cross_round_conflicts(self):
        # The adversarial case for a *per-round* check: chunks A=[(0,0),(0,1)]
        # and B=[(1,0),(1,1)] where (1,0) [chunk B, round 0] reads the cell
        # A[0,1] that (0,1) [chunk A, round 1] writes.  No round shares a
        # cell internally, yet round-major order runs (1,0) before (0,1)
        # while the chunk-major reference runs it after.  The global
        # cross-chunk check must catch this and fall back.
        nest = (
            loop_nest("cross-round")
            .loop("i1", 0, 1)
            .loop("i2", 0, 1)
            .statement("A[i1, i2] = A[i1 - 1, i2 + 1] + 1.0")
            .build()
        )
        transformed = TransformedLoopNest.identity(nest)
        transformed.parallel_levels = (0,)  # wrong on purpose: i1 carries a dependence
        base = store_for_nest(nest)
        # chunk-major reference in the transformed (identity) order
        ref = base.copy()
        for chunk_iterations in ([(0, 0), (0, 1)], [(1, 0), (1, 1)]):
            for iteration in chunk_iterations:
                env = nest.env_for(iteration)
                for stmt in nest.statements:
                    ref[stmt.target.array][stmt.target.subscript_values(env)] = (
                        stmt.rhs.evaluate(env, ref)
                    )
        backend = VectorizedBackend(min_parallel_width=2)
        result = base.copy()
        backend.execute(transformed, result)
        assert ref.identical(result)
        assert backend.stats["illegal_schedule_fallbacks"] == 1
        assert backend.stats["vectorized_rounds"] == 0


class TestCompiledBehavior:
    def test_body_function_cached_per_nest(self):
        nest = example_4_1(4)
        assert CompiledBackend.body_function(nest) is CompiledBackend.body_function(nest)

    def test_array_named_iterations_does_not_shadow(self):
        # The emitted chunk body takes (arrays, iterations) parameters; an
        # array with either name must not shadow them.
        nest = (
            loop_nest("shadow")
            .loop("i1", 1, 6)
            .statement("iterations[i1] = iterations[i1 - 1] + arrays[i1]")
            .build()
        )
        base, ref, transformed = _reference_and_transformed(nest)
        for backend_name in ("compiled", "vectorized"):
            result = base.copy()
            get_backend(backend_name).execute(transformed, result)
            assert ref.identical(result), backend_name


class TestRegistry:
    def test_available_backends(self):
        names = available_backends()
        assert {"interpreter", "compiled", "vectorized", "native"} <= set(names)

    def test_get_backend_unknown(self):
        with pytest.raises(ExecutionError):
            get_backend("cuda")

    def test_executor_rejects_unknown_backend(self):
        with pytest.raises(ExecutionError):
            ParallelExecutor(mode="serial", backend="cuda")

    def test_resolve_backend_passthrough(self):
        backend = VectorizedBackend()
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend("interpreter"), InterpreterBackend)

    def test_register_custom_backend(self):
        class ReversedChunks(ExecutionBackend):
            """Chunks in reverse order — legal because chunks are independent."""

            name = "reversed-chunks"

            def execute_plan(self, transformed, plan, store, chunk_indices=None):
                for chunk in reversed(plan.select_chunks(chunk_indices)):
                    self.execute_chunk(transformed, chunk, store)
                return self.name

            def execute_chunk(self, transformed, chunk, store):
                InterpreterBackend().execute_chunk(transformed, chunk, store)

        register_backend("reversed-chunks", ReversedChunks)
        try:
            nest = example_4_1(5)
            base, ref, transformed = _reference_and_transformed(nest)
            result = base.copy()
            get_backend("reversed-chunks").execute(transformed, result)
            assert ref.identical(result)
        finally:
            from repro.runtime import backends as backends_module

            backends_module._REGISTRY.pop("reversed-chunks", None)

    @pytest.mark.parametrize("mode", ["serial", "shared", "native-parallel"])
    def test_chunk_only_backend_runs_every_mode(self, mode):
        backend = ChunkOnlyBackend()
        with ParallelExecutor(mode=mode, workers=2, backend=backend) as executor:
            for case in SUITE[:6]:
                base, ref, transformed = _reference_and_transformed(case.nest)
                result = base.copy()
                outcome = executor.run(transformed, result)
                # No in-kernel driver: native-parallel runs it serially.
                assert (outcome.fallback is None) == (mode != "native-parallel")
                assert ref.identical(result), (mode, case.name)
                assert outcome.backend == "chunk-only"
