"""Every loop depth runs through its own walker: seeded nests of depth 1, 4 and 5.

A native kernel is the innermost loop of its body, and the walker library
of the nest's depth scans the plan's levels around it and holds the
parallel driver.  The other native suites run 2- and 3-deep nests; this one
covers depths 1, 4 and 5 with rectangular and triangular bounds and a
statement that raises at a seeded iteration (zero division, a domain error
or an overflow), raw and coalesced, under both placements:

* serial native against ``InterpreterBackend.execute_plan`` on the same
  plan: the final store, the exception type, and the partial writes of a
  failing run;
* the in-kernel driver at 2-4 ranges against serial native: the final
  store, or the exception type of a failing run.

The sweep runs ``KEY_TABLE_SWEEP_SEEDS`` seeds per depth (a small fixed set
by default; CI's plan-sweep job runs 1000).
"""

import os

import numpy as np
import pytest

from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.loopnest.builder import loop_nest
from repro.plan import optimize_plan
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import InterpreterBackend, NativeBackend
from repro.runtime.executor import _balanced_ranges

SWEEP_SEEDS = int(os.environ.get("KEY_TABLE_SWEEP_SEEDS", "4"))
DEPTHS = (1, 4, 5)

pytestmark = pytest.mark.skipif(
    native_codegen.resolve_engine() is None, reason="no native engine (a C compiler)"
)


def _depth_nest(rng: np.random.Generator, depth: int):
    """A seeded nest of ``depth`` loops.

    Each inner loop is rectangular or triangular (bounded by an outer
    index).  One statement is a recurrence on ``A`` with a seeded distance
    vector, or with a subscript coupling two indices; the other writes
    ``C`` and may raise at a seeded iteration, before or after it.
    """
    names = [f"i{k + 1}" for k in range(depth)]
    lo = int(rng.integers(-2, 1))
    hi = lo + int(rng.integers(1, {1: 12, 4: 4, 5: 3}[depth]))
    builder = loop_nest(f"depth-{depth}")
    for k, name in enumerate(names):
        outer = names[int(rng.integers(0, k))] if k else None
        triangle = [(outer, hi), (lo, outer), (lo, f"{outer} + 1")] if outer else []
        shapes = [(lo, hi)] + triangle
        builder = builder.loop(name, *shapes[int(rng.integers(0, len(shapes)))])
    distance = [int(d) for d in rng.integers(-1, 3, size=depth)]
    distance[0] = max(distance[0], 1)
    if depth > 1 and rng.integers(0, 2):
        # Couple the first and last index, as in the paper's example 4.1.
        q = int(rng.integers(1, 4))
        written = [f"{names[0]} + {names[-1]}", *names[1:-1]]
        inner = zip(names[1:-1], distance[1:])
        read = [f"{written[0]} - {q}", *(f"{n} - {d}" for n, d in inner)]
    else:
        written = names
        read = [f"{n} - {d}" for n, d in zip(names, distance)]
    recurrence = f"A[{', '.join(written)}] = A[{', '.join(read)}] * 0.5 + 1.0"
    index, k = names[int(rng.integers(0, depth))], int(rng.integers(lo, hi + 2))
    raising = [f"1.0 / ({index} - {k})", f"sqrt({index} - {k})", f"exp({index} * 400.0)", "1.0"]
    subscripts = ", ".join(names)
    statements = [
        recurrence,
        f"C[{subscripts}] = B[{subscripts}] * 0.25 + {raising[int(rng.integers(0, 4))]}",
    ]
    if rng.integers(0, 2):
        statements.reverse()
    for statement in statements:
        builder = builder.statement(statement)
    return builder.build()


def _run(run, store):
    """The exception type ``run(store)`` raised, or None."""
    try:
        run(store)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


def _plans(nest):
    """The transformed nest with its raw and coalesced plan, both placements."""
    for placement in ("outer", "inner"):
        transformed = TransformedLoopNest.from_report(analyze_nest(nest, placement=placement))
        plan = transformed.execution_plan()
        yield transformed, plan
        yield transformed, optimize_plan(plan, passes=("coalesce",))[0]


@pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
@pytest.mark.parametrize("depth", DEPTHS)
def test_seeded_depth_sweep(depth, seed):
    nest = _depth_nest(np.random.default_rng([depth, seed]), depth)
    assert nest.depth == depth
    base = store_for_nest(nest)
    flavor = "openmp" if native_codegen.openmp_supported() else "pthreads"
    for transformed, plan in _plans(nest):
        case = (str(nest), plan.levels)
        expected = base.copy()
        error = _run(lambda s: InterpreterBackend().execute_plan(transformed, plan, s), expected)
        backend = NativeBackend()
        serial = base.copy()
        assert _run(lambda s: backend.execute_plan(transformed, plan, s), serial) is error, case
        assert backend.stats["fallback_runs"] == 0, case
        assert expected.identical(serial), case
        for threads in (2, 3, 4):
            starts = _balanced_ranges(plan.chunk_size_totals(), threads)
            if len(starts) < 3:
                continue
            result = base.copy()
            labels = []
            raised = _run(
                lambda s: labels.append(
                    backend.execute_plan_parallel(transformed, plan, s, starts)
                ),
                result,
            )
            assert raised is error, (case, threads)
            if error is None:
                assert labels == [f"native-cc-{flavor}"], (case, threads)
                assert serial.identical(result), (case, threads)
