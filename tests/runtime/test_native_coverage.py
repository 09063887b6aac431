"""Every plan runs native, bit-identically, in every execution mode.

The native kernels scan each chunk through the plan's bound table, so no
plan shape is left to the compiled fallback: shifting partition targets
(example 4.2), coupled bounds (triangular nests), raw and coalesced plans.
One parametrized differential test covers the suite at two sizes, the
triangular nests of ``tests/plan/test_plan_equivalence.py``'s generator and
``examples/loops/*.loop``, each in serial, in the in-kernel parallel driver
at 1, 2 and 4 threads, in ``native-parallel`` and in ``shared`` mode;
every run must be bit-identical to the interpreter and report a native
engine.  Error parity on example 4.2's shifting-target plan
checks that window violations and zero divisors raise the interpreter's
exception types, with the interpreter's partial writes in serial order.
The session tests pin the coalescing cliff: coalesced plans, the default
of shared mode, must still run native.
"""

import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.api.inputs import parse_loop_file
from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import ExecutionError
from repro.loopnest.builder import loop_nest
from repro.plan import optimize_plan
from repro.runtime.arrays import OffsetArray, store_for_nest
from repro.runtime.backends import InterpreterBackend, NativeBackend
from repro.runtime.executor import DRIVER_MIN_ITERATIONS, ParallelExecutor, _balanced_ranges
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

pytestmark = pytest.mark.skipif(
    native_codegen.resolve_engine() is None,
    reason="no native engine (a C compiler) available",
)
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="shared mode needs /dev/shm"
)

ROOT = Path(__file__).resolve().parents[2]
PARALLEL_THREADS = (1, 2, 4)


def _equivalence_generator():
    path = ROOT / "tests" / "plan" / "test_plan_equivalence.py"
    spec = importlib.util.spec_from_file_location("_plan_equivalence_generator", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._random_nest


def _cases():
    nests = [
        (f"{case.name}-n{n}", case.nest) for n in (6, 11) for case in workload_suite(n)
    ]
    random_nest = _equivalence_generator()
    for seed in range(25):
        nest = random_nest(np.random.default_rng(seed))
        if not nest.is_rectangular:
            nests.append((f"triangular-seed{seed}", nest))
    for path in sorted((ROOT / "examples" / "loops").glob("*.loop")):
        nests.append((f"example-{path.stem}", parse_loop_file(path)))
    return [
        pytest.param(nest, coalesce, id=f"{name}-{'coalesced' if coalesce else 'raw'}")
        for name, nest in nests
        for coalesce in (False, True)
    ]


@pytest.fixture(scope="module")
def shared_executor():
    executor = ParallelExecutor(mode="shared", workers=2, backend=NativeBackend())
    yield executor
    executor.close()


@needs_dev_shm
@pytest.mark.parametrize("nest, coalesce", _cases())
def test_every_mode_runs_native_bit_identically(nest, coalesce, shared_executor):
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    plan = transformed.execution_plan()
    if coalesce:
        plan, _ = optimize_plan(plan, transformed, passes=("coalesce",))
    base = store_for_nest(nest)
    reference = base.copy()
    execute_nest(nest, reference)

    backend = NativeBackend()
    result = base.copy()
    outcome = ParallelExecutor(mode="serial", backend=backend).run(transformed, result, plan)
    assert reference.identical(result), "serial"
    assert outcome.backend.startswith("native-"), outcome.backend

    for threads in PARALLEL_THREADS:
        result = base.copy()
        label = backend.execute_plan_parallel(
            transformed, plan, result, _balanced_ranges(plan.chunk_size_totals(), threads)
        )
        assert label is not None and label.startswith("native-"), threads
        assert reference.identical(result), threads

    result = base.copy()
    outcome = ParallelExecutor(mode="native-parallel", workers=2, backend=backend).run(
        transformed, result, plan
    )
    assert reference.identical(result), "native-parallel"
    if len(_balanced_ranges(plan.chunk_size_totals(), 2)) == 2:
        # A single range (one chunk) runs the serial entry point.
        assert (outcome.engine, outcome.fallback) == (None, "serial run: one chunk range")
        assert outcome.backend == "native-cc"
    elif plan.total_iterations < DRIVER_MIN_ITERATIONS:
        # Too little work for a second thread: one range, run serially.
        assert (outcome.engine, outcome.fallback) == (None, "serial run: too little work")
        assert (outcome.backend, outcome.threads) == ("native-cc", 1)
    else:
        assert outcome.engine is not None and outcome.engine.startswith("native-")
        assert outcome.fallback is None
    assert backend.stats["fallback_runs"] == 0

    result = base.copy()
    outcome = shared_executor.run(transformed, result, plan)
    assert reference.identical(result), "shared"
    assert outcome.backend.startswith("native-"), outcome.backend


# ---------------------------------------------------------------------------
# error parity on a shifting-target plan
# ---------------------------------------------------------------------------

N_ERR = 6


def _shifting_target_plan(nest):
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    plan = transformed.execution_plan()
    assert plan.partition_levels and not plan._fixed_targets
    return transformed, plan


def _window_case():
    """Example 4.2 whose ``A`` window misses the mirrored reads of the last
    two ``i1`` rows (``-i1 - 2 < -N``), so the run fails part-way."""
    nest = example_4_2(N_ERR)
    store = store_for_nest(nest)
    tight = OffsetArray.from_window([-N_ERR, -2 * N_ERR - 1], [N_ERR, 2 * N_ERR - 1])
    tight.data[...] = np.arange(tight.data.size, dtype=np.float64).reshape(tight.data.shape)
    store["A"] = tight
    return nest, store, ExecutionError


def _zero_divisor_case():
    """Example 4.2's loops and dependences with a divisor that hits zero."""
    nest = (
        loop_nest("example-4.2-divzero")
        .loop("i1", -N_ERR, N_ERR)
        .loop("i2", -N_ERR, N_ERR)
        .statement("A[i1, i2] = A[-i1 - 2, -i1 - i2 - 1] * 0.5 + 1.0 / (i1 - 3)")
        .statement("B[i1, i2] = B[i1 - 2, i2 - 1] + A[i1, i2]")
        .build()
    )
    return nest, store_for_nest(nest), ZeroDivisionError


@pytest.mark.parametrize(
    "make_case", [_window_case, _zero_divisor_case], ids=["window", "zero-divisor"]
)
class TestShiftingTargetErrorParity:
    def test_serial_matches_interpreter_partial_writes(self, make_case):
        nest, store, error = make_case()
        transformed, plan = _shifting_target_plan(nest)
        with pytest.raises(error):
            execute_nest(nest, store.copy())
        expected = store.copy()
        with pytest.raises(error):
            InterpreterBackend().execute_plan(transformed, plan, expected)
        result = store.copy()
        backend = NativeBackend()
        with pytest.raises(error):
            backend.execute_plan(transformed, plan, result)
        assert backend.stats["fallback_runs"] == 0
        assert not store.identical(result), "the run stopped before any write"
        assert expected.identical(result)

    @pytest.mark.parametrize("threads", PARALLEL_THREADS)
    def test_parallel_driver_raises_interpreter_type(self, make_case, threads):
        nest, store, error = make_case()
        transformed, plan = _shifting_target_plan(nest)
        with pytest.raises(error):
            NativeBackend().execute_plan_parallel(
                transformed, plan, store.copy(),
                _balanced_ranges(plan.chunk_size_totals(), threads),
            )


# ---------------------------------------------------------------------------
# coalesced plans stay native (default passes of shared mode)
# ---------------------------------------------------------------------------

def _coalesced_session_run(**config):
    """Example 4.1 through a session whose plan passes coalesce it."""
    backend = NativeBackend()
    with Session(backend=backend, verify="always", **config) as session:
        assert session.config.resolved_plan_passes() == ("coalesce",)
        result = session.run(example_4_1(64))
    assert result.max_abs_difference == 0.0
    assert result.backend.startswith("native-cc"), result.backend
    assert backend.stats["fallback_runs"] == 0
    return result


@needs_dev_shm
def test_shared_mode_default_passes_run_native():
    _coalesced_session_run(mode="shared", workers=2)


@pytest.mark.usefixtures("no_driver_floor")
def test_native_parallel_with_coalesce_runs_native():
    result = _coalesced_session_run(
        mode="native-parallel", workers=2, plan_passes=("coalesce",)
    )
    assert result.execution.engine is not None
