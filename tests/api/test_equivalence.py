"""API-equivalence contract of the session surface.

``Session.run`` must be bit-identical to the interpreter reference
(``execute_nest`` on the original nest) across the example suite and seeded
random nests, report the same analysis as the uncached ``analyze_nest``
primitive, and emit no ``DeprecationWarning``.
"""

import numpy as np
import pytest

from repro.api import Session, SessionConfig
from repro.core.pipeline import analyze_nest
from repro.loopnest.builder import loop_nest
from repro.runtime.arrays import store_for_nest
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1
from repro.workloads.suite import workload_suite

SUITE = workload_suite(5)
SUITE_IDS = [case.name for case in SUITE]


def _random_nest(rng: np.random.Generator):
    """A random but analyzable 2-deep nest with genuine dependences."""
    n = int(rng.integers(4, 8))
    pattern = int(rng.integers(0, 3))
    if pattern == 0:
        a, b = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        body = f"A[i1, i2] = A[i1 - {a}, i2 - {b}] * 0.5 + {float(rng.integers(1, 4))}"
    elif pattern == 1:
        p, q = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        body = f"A[{p}*i1 + i2] = A[{p}*i1 + i2 - {q}] + B[i1, i2]"
    else:
        a = 2 * int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        body = f"A[i1, i2] = A[-i1 - {a}, {m}*i1 + i2 + {a}] + 1.0"
    lo = int(rng.integers(-3, 1))
    builder = loop_nest(f"random-{pattern}").loop("i1", lo, lo + n).loop("i2", lo, lo + n)
    builder.statement(body)
    return builder.build()


def _interpreted(nest):
    store = store_for_nest(nest)
    execute_nest(nest, store)
    return store


class TestSessionRunMatchesInterpreter:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_suite_bit_identical(self, case):
        report = analyze_nest(case.nest)
        with Session(SessionConfig(backend="compiled", use_cache=False)) as session:
            result = session.run(case.nest)
        assert _interpreted(case.nest).identical(result.store)
        assert result.report.transform == report.transform
        assert result.report.parallel_levels == report.parallel_levels
        assert result.report.partition_count == report.partition_count
        assert result.iterations == case.nest.iteration_count()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_nests_bit_identical(self, seed):
        nest = _random_nest(np.random.default_rng(1000 + seed))
        with Session(backend="vectorized", use_cache=False) as session:
            result = session.run(nest)
        assert _interpreted(nest).identical(result.store), (seed, nest.name)

    def test_shared_mode_bit_identical(self):
        nest = example_4_1(5)
        with Session(mode="shared", backend="compiled", workers=2, use_cache=False) as session:
            result = session.run(nest)
        assert _interpreted(nest).identical(result.store)
        assert result.mode == "shared"


class TestDeprecationContract:
    def test_analyze_nest_does_not_warn(self, recwarn):
        analyze_nest(example_4_1(4))
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]

    def test_session_surface_does_not_warn(self, recwarn):
        with Session(backend="compiled") as session:
            session.run(example_4_1(4))
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]
