"""Property tests: the symbolic plan is bit-identical to the legacy schedule.

The contract of :mod:`repro.plan` is exact equivalence with the original
materializing ``build_schedule`` (kept as
:func:`repro.codegen.schedule.build_schedule_by_enumeration`):

* same chunk keys, in the same (first-appearance) order,
* same per-chunk iterations, in the same (lexicographic) order,
* same closed-form counts (``chunk_count``, ``chunk_size``,
  ``total_iterations``, ``statistics()``),
* same execution results through every backend and executor mode
  (including ``mode="shared"``, where only the plan crosses the process
  boundary).

Checked over the workload suite (both placements) and seeded random nests —
the random family deliberately includes non-rectangular bounds and
transforms whose Fourier–Motzkin scan has integrality gaps (prefixes with
empty integer fibers), the corner the plan's invariance analysis must
handle conservatively.
"""

import os
import pickle

import numpy as np
import pytest

from repro.codegen.schedule import build_schedule, build_schedule_by_enumeration
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.loopnest.builder import loop_nest
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import get_backend
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.workloads.suite import workload_suite

SUITE = workload_suite(6)
SUITE_IDS = [case.name for case in SUITE]

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="shared mode needs /dev/shm"
)


def _random_nest(rng: np.random.Generator):
    """Random analyzable 2- and 3-deep nests, rectangular and triangular."""
    n = int(rng.integers(3, 8))
    pattern = int(rng.integers(0, 3))
    if pattern == 0:
        a, b = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        body = f"A[i1, i2] = A[i1 - {a}, i2 - {b}] * 0.5 + 1.0"
    elif pattern == 1:
        p, q = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        body = f"A[{p}*i1 + i2] = A[{p}*i1 + i2 - {q}] + 1.0"
    else:
        a = 2 * int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        body = f"A[i1, i2] = A[-i1 - {a}, {m}*i1 + i2 + {a}] + 1.0"
    lo = int(rng.integers(-3, 1))
    builder = loop_nest(f"random-{pattern}").loop("i1", lo, lo + n)
    if rng.integers(0, 2):
        builder = builder.loop("i2", "i1", lo + n)  # triangular inner bound
    else:
        builder = builder.loop("i2", lo, lo + n)
    builder.statement(body)
    return builder.build()


def _assert_plan_matches_reference(transformed: TransformedLoopNest) -> None:
    reference = build_schedule_by_enumeration(transformed)
    plan = transformed.execution_plan()

    # Keys, order of first appearance.
    assert [chunk.key for chunk in reference] == list(plan.chunk_keys())
    # Per-chunk iterations in lexicographic order, via the lazy generator.
    for chunk, view in zip(reference, plan.chunks()):
        assert chunk.key == view.key
        assert chunk.iterations == list(view.iterations)
        assert chunk.size == view.size == plan.chunk_size(chunk.key)
    # Closed-form aggregates.
    assert plan.chunk_count == len(reference)
    assert plan.total_iterations == sum(chunk.size for chunk in reference)
    assert plan.chunk_sizes() == [chunk.size for chunk in reference]
    # The materializing view layer routes through the plan and must agree.
    materialized = build_schedule(transformed)
    assert [c.key for c in materialized] == [c.key for c in reference]
    assert all(
        a.iterations == b.iterations for a, b in zip(materialized, reference)
    )


class TestScheduleEquivalence:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    @pytest.mark.parametrize("placement", ["outer", "inner"])
    def test_suite_bit_identical(self, case, placement):
        report = analyze_nest(case.nest, placement=placement)
        _assert_plan_matches_reference(TransformedLoopNest.from_report(report))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_nests_bit_identical(self, seed):
        nest = _random_nest(np.random.default_rng(seed))
        for placement in ("outer", "inner"):
            report = analyze_nest(nest, placement=placement)
            _assert_plan_matches_reference(TransformedLoopNest.from_report(report))

    def test_plan_statistics_match_schedule_statistics(self):
        from repro.codegen.schedule import schedule_statistics

        for case in SUITE:
            transformed = TransformedLoopNest.from_report(analyze_nest(case.nest))
            legacy = schedule_statistics(build_schedule_by_enumeration(transformed))
            assert transformed.execution_plan().statistics() == legacy

    def test_plan_survives_pickling_bit_identical(self):
        # Workers receive the plan by pickle; the round-tripped plan must
        # enumerate exactly the same schedule.
        for case in SUITE:
            transformed = TransformedLoopNest.from_report(analyze_nest(case.nest))
            plan = transformed.execution_plan()
            clone = pickle.loads(pickle.dumps(plan))
            assert list(plan.chunk_keys()) == list(clone.chunk_keys())
            for key in plan.chunk_keys():
                assert list(plan.iterations_for(key)) == list(clone.iterations_for(key))
            assert plan.chunk_sizes() == clone.chunk_sizes()


class TestExecutionEquivalence:
    """Plan-driven execution is bit-identical to the interpreter reference."""

    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    @pytest.mark.parametrize(
        "backend_name", ["interpreter", "compiled", "vectorized"]
    )
    def test_backends_on_plan(self, case, backend_name):
        transformed = TransformedLoopNest.from_report(analyze_nest(case.nest))
        base = store_for_nest(case.nest)
        reference = base.copy()
        execute_nest(case.nest, reference)
        backend = get_backend(backend_name)
        if backend_name == "vectorized":
            backend = get_backend(backend_name, min_parallel_width=2)
        result = base.copy()
        backend.execute_plan(transformed, transformed.execution_plan(), result)
        assert reference.identical(result), (case.name, backend_name)

    @pytest.mark.parametrize("mode", ["serial", "native-parallel"])
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_executor_modes_on_plan(self, mode, seed):
        nest = _random_nest(np.random.default_rng(seed))
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        base = store_for_nest(nest)
        reference = base.copy()
        execute_nest(nest, reference)
        result = base.copy()
        with ParallelExecutor(mode=mode, workers=2, backend="compiled") as executor:
            outcome = executor.run(transformed, result)
        assert reference.identical(result), (mode, seed)
        assert outcome.total_iterations == transformed.iteration_count()

    @needs_dev_shm
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_shared_mode_on_plan(self, case):
        # The pool receives nothing but the plan spec; workers enumerate
        # their chunks in place and the result is still bit-identical.
        transformed = TransformedLoopNest.from_report(analyze_nest(case.nest))
        base = store_for_nest(case.nest)
        reference = base.copy()
        execute_nest(case.nest, reference)
        result = base.copy()
        with ParallelExecutor(mode="shared", workers=2, backend="compiled") as executor:
            executor.run(transformed, result)
        assert reference.identical(result), case.name

    @needs_dev_shm
    @pytest.mark.parametrize("seed", [1, 5])
    def test_shared_mode_random_nests(self, seed):
        nest = _random_nest(np.random.default_rng(100 + seed))
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        base = store_for_nest(nest)
        reference = base.copy()
        execute_nest(nest, reference)
        result = base.copy()
        with ParallelExecutor(mode="shared", workers=2, backend="vectorized") as executor:
            executor.run(transformed, result)
        assert reference.identical(result), seed


class TestStoreWindows:
    """Stores of the random nests, triangular ones included, are sized
    without enumerating iterations; their windows equal enumeration's."""

    @pytest.mark.parametrize("seed", range(25))
    def test_windows_match_enumeration(self, seed):
        nest = _random_nest(np.random.default_rng(seed))
        expected = {}
        for iteration in nest.iterations():
            env = nest.env_for(iteration)
            for ref in nest.references():
                values = ref.subscript_values(env)
                lows, highs = expected.setdefault(ref.array, (list(values), list(values)))
                for k, value in enumerate(values):
                    lows[k] = min(lows[k], value)
                    highs[k] = max(highs[k], value)
        store = store_for_nest(nest, margin=0)
        assert list(store) == list(expected)
        for array, (lows, highs) in expected.items():
            assert store[array].origin == tuple(lows)
            assert store[array].shape == tuple(hi - lo + 1 for lo, hi in zip(lows, highs))
