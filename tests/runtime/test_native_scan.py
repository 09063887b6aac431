"""Serial native runs find their chunks in native code.

A serial native run of a whole plan calls the native chunk scan, which
walks the plan's bound table in the key table's order and runs the chunks
through the kernel as it finds them: no key table is built, the run
reports the count the scan found, and a failing chunk leaves exactly the
interpreter's partial writes.  In ``native-parallel``, a plan below the
driver's iteration floor runs the same serial scan, through ``Session.run``
or the gateway, and names the reason.  (The scan's chunk order
itself is pinned against ``_discover`` in ``tests/plan/test_key_table.py``.)
"""

import numpy as np
import pytest

from repro.api import Session
from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.gateway import GatewayConfig, serve
from repro.loopnest.builder import loop_nest
from repro.loopnest.parser import parse_statement
from repro.plan import ExecutionPlan
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import InterpreterBackend, NativeBackend
from repro.runtime.executor import DRIVER_MIN_ITERATIONS, ParallelExecutor
from repro.workloads.suite import workload_suite

pytestmark = pytest.mark.skipif(
    native_codegen.resolve_engine() is None, reason="no native engine (a C compiler)"
)

COLD_CASES = [(case.name, 12) for case in workload_suite(12)] + [("independent", 1024)]


def _suite_nest(name: str, n: int):
    (nest,) = [case.nest for case in workload_suite(n) if case.name == name]
    return nest


def _count_table_builds(monkeypatch) -> dict:
    """Count calls of everything that builds or replaces the key table."""
    calls = {}
    for attribute in ("key_table", "_expanded_key_table", "_discover"):
        original = getattr(ExecutionPlan, attribute)
        calls[attribute] = 0

        def wrapper(self, *args, _original=original, _name=attribute):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ExecutionPlan, attribute, wrapper)
    return calls


class TestColdSerialRunBuildsNoKeyTable:
    @pytest.mark.parametrize("name, n", COLD_CASES, ids=[f"{c}@{n}" for c, n in COLD_CASES])
    def test_cold_session_run(self, name, n, monkeypatch):
        nest = _suite_nest(name, n)
        calls = _count_table_builds(monkeypatch)
        with Session(backend="native", mode="serial") as session:
            result = session.run(nest)
        counted = dict(calls)
        monkeypatch.undo()
        assert counted == {"key_table": 0, "_expanded_key_table": 0, "_discover": 0}
        assert result.backend == "native-cc"
        reference = TransformedLoopNest.from_report(analyze_nest(nest)).execution_plan()
        assert result.num_chunks == reference.chunk_count == len(reference.key_list())
        assert result.execution.plan.chunk_count == reference.chunk_count

    def test_inner_placement_keeps_the_key_table(self, monkeypatch):
        # A partition level swept above a doall level: the scan would have
        # to deduplicate parallel values, so the run reads the key table.
        nest = _suite_nest("example-4.1", 12)
        calls = _count_table_builds(monkeypatch)
        with Session(backend="native", mode="serial", placement="inner") as session:
            result = session.run(nest, verify=True)
        assert result.execution.plan.scan_stamps() is None
        assert calls["key_table"] >= 1
        assert result.max_abs_difference == 0.0 and result.backend == "native-cc"


#: The plan shapes the scan runs differently: a partition level swept and
#: deduplicated above another partition level, and doall levels outermost.
DEDUPLICATED = ["uniform-skewed", "example-4.2", "banded-update", "mixed-distance"]
DOALL_OUTER = ["example-4.1", "three-deep"]


def _divides_by_zero_once(nest):
    """The nest with ``+ 1.0 / Z[i...]`` added to its first statement.

    ``Z`` is only read, so the dependences and the plan stay the same; the
    run divides by zero wherever the test zeroes a cell of ``Z``.
    """
    first, *rest = nest.statements
    indices = ", ".join(nest.index_names)
    text = f"{first.target.to_source()} = {first.rhs.to_source()} + 1.0 / Z[{indices}]"
    statement = parse_statement(text, nest.index_names)
    return nest.with_statements([statement, *rest], name=f"{nest.name}-divzero")


@pytest.mark.parametrize("name", DEDUPLICATED + DOALL_OUTER)
def test_serial_partial_writes_through_the_scan(name, monkeypatch):
    nest = _divides_by_zero_once(_suite_nest(name, 7))
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    plan = transformed.execution_plan()
    assert plan.scan_stamps() is not None
    if name in DEDUPLICATED:
        assert plan.levels[0].role == "partition" and not plan._invariant[0]
    else:
        assert plan.levels[0].role == "parallel"
    points = list(nest.iterations())
    for position in (0, len(points) // 3, len(points) // 2, len(points) - 1):
        base = store_for_nest(nest)
        base["Z"].data[...] = 1.0
        base["Z"][points[position]] = 0.0
        expected = base.copy()
        with pytest.raises(ZeroDivisionError):
            InterpreterBackend().execute_plan(transformed, plan, expected)
        result = base.copy()
        backend = NativeBackend()
        calls = _count_table_builds(monkeypatch)
        with pytest.raises(ZeroDivisionError):
            backend.execute_plan(transformed, plan, result)
        monkeypatch.undo()
        assert calls["key_table"] == 0, "the run read the key table"
        assert backend.stats["fallback_runs"] == 0
        assert expected.identical(result), (name, points[position])


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


class TestMinimumWork:
    def test_floor_lies_between_the_measured_bounds(self):
        # Above the largest N=48 suite program other than three-deep, and
        # at most the smallest serve-mix program.
        assert 9409 < DRIVER_MIN_ITERATIONS <= 36672

    def test_suite_at_48_names_the_serial_run(self):
        with Session(backend="native", mode="native-parallel", workers=2) as session:
            for case in workload_suite(48):
                run = session.run(case.nest)
                if run.iterations >= DRIVER_MIN_ITERATIONS:
                    assert case.name == "three-deep" and run.iterations == 60025
                    assert (run.threads, run.fallback) == (2, None)
                    assert run.engine is not None
                elif run.num_chunks == 1:
                    assert run.fallback == "serial run: one chunk range", case.name
                else:
                    assert run.fallback == "serial run: too little work", case.name
                    assert (run.threads, run.workers, run.engine) == (1, 1, None)
                    assert run.backend == "native-cc"

    @pytest.mark.parametrize("door", ["session", "gateway"])
    @pytest.mark.parametrize("name", [case.name for case in workload_suite(12)])
    def test_small_plan_counts_no_chunks_before_its_run(self, name, door, monkeypatch):
        # One range is decided from the iteration count alone, so a cold
        # run through either door leaves the counting to the serial scan.
        nest = _suite_nest(name, 12)
        calls = _count_table_builds(monkeypatch)
        with Session(backend="native", mode="native-parallel", workers=2) as session:
            if door == "session":
                result = session.run(nest)
            else:
                config = GatewayConfig(exec_workers=2, result_cache=0, coalesce=False)
                (result,) = serve(session, [nest], config=config)
        counted = dict(calls)
        monkeypatch.undo()
        assert counted == {"key_table": 0, "_expanded_key_table": 0, "_discover": 0}
        reference = TransformedLoopNest.from_report(analyze_nest(nest)).execution_plan()
        assert result.num_chunks == len(reference.key_list())
        small = "too little work" if result.num_chunks > 1 else "one chunk range"
        assert (result.threads, result.fallback) == (1, f"serial run: {small}")

    @pytest.mark.parametrize(
        "program",
        [("example-4.1", 256), ("variable-rank1-3", 192), ("three-deep", 48)]
        + [(f"serve_v{variant}", 192) for variant in range(3)],
        ids=lambda program: f"{program[0]}@{program[1]}",
    )
    def test_serve_mix_programs_cut_two_ranges(self, program):
        name, n = program
        if name.startswith("serve_v"):
            nest = _serve_variant(int(name[len("serve_v"):]), n)
        else:
            nest = _suite_nest(name, n)
        plan = TransformedLoopNest.from_report(analyze_nest(nest)).execution_plan()
        assert plan.total_iterations >= DRIVER_MIN_ITERATIONS
        starts = ParallelExecutor(mode="native-parallel", workers=2).driver_ranges(plan)
        assert len(starts) - 1 == 2

    def test_small_plan_runs_the_serial_scan(self, monkeypatch):
        nest = _suite_nest("example-4.1", 12)
        base = store_for_nest(nest)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        serial = base.copy()
        ParallelExecutor(mode="serial", backend="native").run(transformed, serial)
        calls = {"parallel": 0}
        original = NativeBackend.execute_plan_parallel

        def counting(self, *args):
            calls["parallel"] += 1
            return original(self, *args)

        monkeypatch.setattr(NativeBackend, "execute_plan_parallel", counting)
        result = base.copy()
        outcome = ParallelExecutor(mode="native-parallel", workers=2, backend="native").run(
            transformed, result
        )
        assert calls["parallel"] == 0
        assert outcome.fallback == "serial run: too little work"
        assert (outcome.threads, outcome.num_chunks) == (1, 96)
        assert np.array_equal(result["A"].data, serial["A"].data)


def test_without_the_shared_scan_serial_runs_read_the_key_table(monkeypatch, tmp_path):
    # A toolchain that cannot build the shared scan still runs every plan
    # natively, from the key table.
    monkeypatch.setattr(native_codegen, "scan_source", lambda: "#error no scan here\n")
    monkeypatch.setenv(native_codegen.CACHE_DIR_ENV, str(tmp_path))
    native_codegen.clear_kernel_cache()
    try:
        nest = _suite_nest("example-4.2", 8)
        with Session(backend="native", mode="serial") as session:
            result = session.run(nest, verify=True)
        assert result.backend == "native-cc" and result.max_abs_difference == 0.0
        assert result.execution.plan._key_table_cache is not None
    finally:
        monkeypatch.undo()
        native_codegen.clear_kernel_cache()
