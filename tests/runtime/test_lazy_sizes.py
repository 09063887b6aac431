"""Serial and driver runs never size chunks; results size them on first read.

``ExecutionResult.chunk_sizes`` is computed from the run's plan the first
time it is read, ``num_chunks`` comes from the key table and
``total_iterations`` from the plan.  These tests pin that a serial run calls
neither ``chunk_sizes()`` nor ``chunk_size()`` until then, and that every
reported value — ``RunResult.to_dict()`` in every mode and through the
gateway — equals the eagerly computed one.
"""

import asyncio
import os

import pytest

from repro.api import Session
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.gateway import Gateway
from repro.loopnest.builder import loop_nest
from repro.plan import ExecutionPlan
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import get_backend
from repro.runtime.executor import ParallelExecutor
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.synthetic import three_deep_variable_loop

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="shared mode needs /dev/shm"
)


def _triangle():
    return (
        loop_nest("triangle")
        .loop("i1", 0, 9)
        .loop("i2", 0, "i1")
        .statement("A[i1, i2] = A[i1 - 2, i2] + 1.0")
        .build()
    )


NESTS = [
    ("example-4.1", lambda: example_4_1(8)),
    # Shifting targets: sized by the per-chunk scan, not the table.
    ("example-4.2", lambda: example_4_2(8)),
    ("three-deep", lambda: three_deep_variable_loop(6)),
    ("triangle", _triangle),
]
NEST_IDS = [name for name, _ in NESTS]


def _eager(plan: ExecutionPlan) -> dict:
    """The size-derived fields of ``RunResult.to_dict()``, computed eagerly
    on a cache-free copy of ``plan``."""
    sizes = ExecutionPlan(
        plan.depth, plan.levels, plan.parallel_levels, plan.partition_levels,
        plan.hnf, plan.total_iterations,
    ).chunk_sizes()
    largest = max(sizes, default=0)
    return {
        "iterations": sum(sizes),
        "num_chunks": len(sizes),
        "chunk_sizes": list(sizes),
        "max_chunk_size": largest,
        "ideal_speedup": sum(sizes) / largest if largest else 0.0,
    }


class TestSerialRunsSizeNothing:
    @pytest.mark.parametrize("backend", ["interpreter", "compiled", "vectorized", "native"])
    @pytest.mark.parametrize("make_nest", [make for _, make in NESTS], ids=NEST_IDS)
    def test_sizes_only_on_read(self, backend, make_nest, monkeypatch):
        nest = make_nest()
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        plan = transformed.execution_plan()
        expected = _eager(plan)

        def refuse(*args):
            pytest.fail("a serial run sized its chunks")

        monkeypatch.setattr(ExecutionPlan, "chunk_sizes", refuse)
        monkeypatch.setattr(ExecutionPlan, "chunk_size", refuse)
        result = ParallelExecutor(mode="serial", backend=get_backend(backend)).run(
            transformed, store_for_nest(nest), plan=plan
        )
        assert result.num_chunks == expected["num_chunks"]
        assert result.total_iterations == expected["iterations"]
        monkeypatch.undo()
        assert list(result.chunk_sizes) == expected["chunk_sizes"]

    def test_driverless_native_parallel_sizes_nothing(self, monkeypatch):
        nest = example_4_2(8)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        plan = transformed.execution_plan()
        expected = _eager(plan)
        monkeypatch.setattr(
            ExecutionPlan, "chunk_sizes", lambda self: pytest.fail("sized the chunks")
        )
        result = ParallelExecutor(mode="native-parallel", backend="compiled").run(
            transformed, store_for_nest(nest), plan=plan
        )
        assert result.fallback is not None
        monkeypatch.undo()
        assert list(result.chunk_sizes) == expected["chunk_sizes"]


SIZE_FIELDS = ("iterations", "num_chunks", "chunk_sizes", "max_chunk_size", "ideal_speedup")


def _assert_matches_eager(result, plan) -> None:
    payload = result.to_dict()
    assert {name: payload[name] for name in SIZE_FIELDS} == _eager(plan)


class TestReportedValuesUnchanged:
    @pytest.mark.parametrize(
        "mode",
        ["serial", pytest.param("shared", marks=needs_dev_shm), "native-parallel"],
    )
    @pytest.mark.parametrize("backend", ["compiled", "native"])
    def test_to_dict_equals_eager_values(self, mode, backend):
        with Session(backend=backend, mode=mode, workers=2) as session:
            for _, make_nest in NESTS:
                nest = make_nest()
                result = session.run(nest)
                # The plan the run used (coalesced by default in shared mode).
                plan = session._program_for(nest, result.report).plan
                _assert_matches_eager(result, plan)

    @pytest.mark.parametrize("backend", ["compiled", "native"])
    def test_gateway_results_equal_eager_values(self, backend):
        nests = [make_nest() for _, make_nest in NESTS]
        with Session(backend=backend) as session:

            async def main():
                async with Gateway(session, exec_workers=2) as gateway:
                    return await gateway.map(nests)

            results = asyncio.run(asyncio.wait_for(main(), timeout=60.0))
            for nest, result in zip(nests, results):
                plan = session._program_for(nest, result.report).plan
                _assert_matches_eager(result, plan)
