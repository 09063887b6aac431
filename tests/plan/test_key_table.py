"""The key table and the native chunk scan are exact transcriptions of
the discovery scan.

``ExecutionPlan.key_table()`` expands the plan level by level from its
bound table, and the native chunk scan ``repro_scan`` walks the same
bound table in C; ``_discover`` stays as the reference.  These tests pin
both to ``[key for key, _ in plan._discover()]`` — values, order and count — over
the suite at small N (where fibers go empty), seeded random nests and every
shipped ``.loop`` file, raw and coalesced, under both placements.  They
also pin the two paths that still take the keys from ``_discover`` (plans
the overflow guard refuses, and expansions past the row ceiling) and the
one plan shape that keeps the key table instead of the native scan.

The seeded sweeps run ``KEY_TABLE_SWEEP_SEEDS`` seeds (a small fixed set
by default; CI runs a large sweep in its own job).
"""

import functools
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import parse_loop_file
from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.loopnest.builder import loop_nest
from repro.plan import ExecutionPlan, ir, optimize_plan
from repro.runtime.arrays import OffsetArray
from repro.workloads.suite import workload_suite

from test_chunk_sizes import _fresh, _oversized_plan, _triangle
from test_plan_equivalence import _random_nest

SWEEP_SEEDS = int(os.environ.get("KEY_TABLE_SWEEP_SEEDS", "12"))

LOOP_FILES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "loops").glob("*.loop")
)


def _plans(nest):
    """The raw and the coalesced plan of both placements."""
    for placement in ("outer", "inner"):
        report = analyze_nest(nest, placement=placement)
        plan = TransformedLoopNest.from_report(report).execution_plan()
        yield plan
        yield optimize_plan(plan, passes=("coalesce",))[0]


def _assert_table_matches_discovery(plan: ExecutionPlan) -> None:
    reference = [key for key, _ in _fresh(plan)._discover()]
    table_plan = _fresh(plan)
    table = table_plan.key_table()
    assert table is not None
    assert table.dtype == np.int64 and table.flags["C_CONTIGUOUS"]
    assert table.shape == (len(reference), plan.depth)
    assert np.array_equal(table, plan.key_rows(reference))
    keys = table_plan.key_list()
    assert keys == reference
    assert all(type(value) is int for key in keys for part in key for value in part)
    assert list(table_plan.chunk_keys()) == reference
    assert _fresh(plan).chunk_count == len(reference)


@functools.lru_cache(maxsize=None)
def _recorder_kernel(depth: int) -> native_codegen.NativeKernel:
    """A kernel that stamps every iteration it runs with its position.

    ``T[0]`` counts the iterations and ``O[j]`` keeps the count at point
    ``j`` (identity inverse, so ``O`` is indexed by the new-space point).
    Kernels read every plan fact from the bound table at run time, so this
    one kernel runs any plan of its depth.
    """
    names = [f"i{k + 1}" for k in range(depth)]
    builder = loop_nest(f"recorder-{depth}")
    for name in names:
        builder = builder.loop(name, 0, 1)
    nest = (
        builder.statement("T[0] = T[0] + 1.0")
        .statement(f"O[{', '.join(names)}] = T[0]")
        .build()
    )
    identity = tuple(tuple(int(r == c) for c in range(depth)) for r in range(depth))
    kernel = native_codegen._build_kernel(nest, identity)
    assert kernel is not None, native_codegen.last_build_error()
    return kernel


def _scanned_keys(plan: ExecutionPlan):
    """The chunk keys the native scan runs, in the order it runs them,
    and the count it reports.

    Every chunk runs its iterations back to back, so ordering the chunks
    by their first stamp gives the scan's order; a chunk run twice would
    push ``T[0]`` past the iteration count, and a key without iterations
    would only show in the count.
    """
    keys = [key for key, _ in _fresh(plan)._discover()]
    points = {key: list(plan.iterations_for(key)) for key in keys}
    every = [point for chunk in points.values() for point in chunk] or [(0,) * plan.depth]
    counter = OffsetArray.from_window([0], [0])
    order = OffsetArray.from_window(
        [min(p[k] for p in every) for k in range(plan.depth)],
        [max(p[k] for p in every) for k in range(plan.depth)],
        fill=-1.0,
    )
    status, found = _recorder_kernel(plan.depth).scan(
        [counter, order], plan.bound_table(), plan.scan_stamps()
    )
    assert status == native_codegen.OK
    assert counter.data[0] == plan.total_iterations
    first = {key: min(order[point] for point in chunk) for key, chunk in points.items()}
    return sorted(keys, key=first.__getitem__), found


def _assert_scan_matches_discovery(plan: ExecutionPlan) -> None:
    plan = _fresh(plan)
    if plan.scan_stamps() is None:
        # The one shape the structural rule sends to the key table: a
        # swept level above a parallel level.
        swept = [
            level for level, spec in enumerate(plan.levels)
            if not (spec.role == "parallel" and spec.block == 1)
            and not plan._invariant[level]
        ]
        assert swept and any(
            plan.levels[level].role == "parallel" for level in range(swept[0] + 1, plan.depth)
        ), plan
        assert plan.bound_table() is not None
        return
    reference = [key for key, _ in plan._discover()]
    keys, found = _scanned_keys(plan)
    assert found == len(reference)
    assert keys == reference


def _random_deep_nest(rng: np.random.Generator):
    """A random 3-deep nest with triangular and affine inner bounds."""
    lo = int(rng.integers(-2, 1))
    hi = lo + int(rng.integers(2, 6))
    second = [("i1", hi), (lo, "i1"), (lo, hi)][int(rng.integers(0, 3))]
    third = [
        ("i2", hi),
        (lo, "i1"),
        ("i1", "i2 + 2"),
        (lo, hi),
        ("i2 - i1", "i1 + 1"),
        (lo, "2*i1 - i2 + 1"),
        ("i1 - 2*i2", hi),
    ][int(rng.integers(0, 7))]
    pattern = int(rng.integers(0, 4))
    a, b, c = (int(x) for x in rng.integers(0, 3, size=3))
    if pattern == 0:
        body = f"A[i1, i2, i3] = A[i1 - {a + 1}, i2 - {b}, i3 - {c}] * 0.5 + 1.0"
    elif pattern == 1:
        p, q = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        body = f"A[{p}*i1 + i2, i3] = A[{p}*i1 + i2 - {q}, i3 - {c}] + 1.0"
    elif pattern == 2:
        m = int(rng.integers(1, 3))
        shift = 2 * (a + 1)
        body = f"A[i1, i2, i3] = A[-i1 - {shift}, {m}*i1 + i2 + {shift}, i3] + 1.0"
    else:
        q = int(rng.integers(1, 4))
        body = f"A[i1 + i3, i2] = A[i1 + i3 - {q}, i2 - {b}] + 1.0"
    return (
        loop_nest(f"random-deep-{pattern}")
        .loop("i1", lo, hi)
        .loop("i2", *second)
        .loop("i3", *third)
        .statement(body)
        .build()
    )


class TestTableMatchesDiscovery:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_suite_raw_and_coalesced(self, n):
        for case in workload_suite(n):
            for plan in _plans(case.nest):
                _assert_table_matches_discovery(plan)

    @pytest.mark.parametrize("path", LOOP_FILES, ids=[path.stem for path in LOOP_FILES])
    def test_example_loop_files(self, path):
        for plan in _plans(parse_loop_file(str(path))):
            _assert_table_matches_discovery(plan)

    @pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
    def test_seeded_sweep(self, seed):
        """2-deep rectangular and triangular nests, and 3-deep triangular ones."""
        rng = np.random.default_rng(seed)
        for nest in (_random_nest(rng), _random_deep_nest(rng)):
            for plan in _plans(nest):
                _assert_table_matches_discovery(plan)

    def test_inner_ranges_empty_for_some_prefixes(self):
        # i2 runs 3 - i1 .. i1 - 3: empty for i1 < 3, so early prefixes
        # have empty fibers below them.
        nest = (
            loop_nest("hourglass")
            .loop("i1", 0, 8)
            .loop("i2", "3 - i1", "i1 - 3")
            .statement("A[i1, i2] = A[i1 - 2, i2] + 1.0")
            .build()
        )
        for plan in _plans(nest):
            _assert_table_matches_discovery(plan)


needs_engine = pytest.mark.skipif(
    native_codegen.resolve_engine() is None, reason="no native engine (a C compiler)"
)


@needs_engine
class TestScanMatchesDiscovery:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_suite_raw_and_coalesced(self, n):
        for case in workload_suite(n):
            for plan in _plans(case.nest):
                _assert_scan_matches_discovery(plan)

    @pytest.mark.parametrize("path", LOOP_FILES, ids=[path.stem for path in LOOP_FILES])
    def test_example_loop_files(self, path):
        for plan in _plans(parse_loop_file(str(path))):
            _assert_scan_matches_discovery(plan)

    @pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
    def test_seeded_scan_sweep(self, seed):
        rng = np.random.default_rng(seed)
        for nest in (_random_nest(rng), _random_deep_nest(rng)):
            for plan in _plans(nest):
                _assert_scan_matches_discovery(plan)

    def test_inner_ranges_empty_for_some_prefixes(self):
        nest = (
            loop_nest("hourglass")
            .loop("i1", 0, 8)
            .loop("i2", "3 - i1", "i1 - 3")
            .statement("A[i1, i2] = A[i1 - 2, i2] + 1.0")
            .build()
        )
        for plan in _plans(nest):
            _assert_scan_matches_discovery(plan)

    def test_outer_placement_suite_always_scans(self):
        """Only ``placement="inner"`` puts a swept level above a doall level
        in the suite; every default-placement plan runs the native scan."""
        kept = set()
        for case in workload_suite(12):
            for placement in ("outer", "inner"):
                report = analyze_nest(case.nest, placement=placement)
                plan = TransformedLoopNest.from_report(report).execution_plan()
                for candidate in (plan, optimize_plan(plan, passes=("coalesce",))[0]):
                    if candidate.scan_stamps() is None:
                        kept.add((case.name, placement))
        assert kept == {
            ("example-4.1", "inner"),
            ("variable-rank1-3", "inner"),
            ("three-deep", "inner"),
        }

    def test_stamp_limit_keeps_the_key_table(self, monkeypatch):
        (nest,) = [case.nest for case in workload_suite(8) if case.name == "example-4.2"]
        plan = _fresh(next(_plans(nest)))
        assert plan._scan_stamps, "example-4.2 sweeps its outer partition level"
        monkeypatch.setattr(ir, "_SCAN_STAMP_LIMIT", plan._scan_stamps - 1)
        assert _fresh(plan).scan_stamps() is None


class TestDiscoveryFallbacks:
    def test_overflow_guard_keys_come_from_discovery(self, monkeypatch):
        transformed = TransformedLoopNest.from_report(analyze_nest(_triangle(7)))
        reference = transformed.execution_plan().key_list()
        plan = _oversized_plan(transformed)
        calls = {"discover": 0}
        discover = ExecutionPlan._discover

        def counting(self):
            calls["discover"] += 1
            return discover(self)

        monkeypatch.setattr(ExecutionPlan, "_discover", counting)
        assert plan.key_table() is None
        assert list(plan.chunk_keys()) == reference
        assert plan.key_list() == reference
        assert plan.chunk_count == len(reference)
        assert calls["discover"] >= 1

    @pytest.mark.parametrize("n", [5, 9])
    def test_row_ceiling_falls_back_to_the_same_table(self, n, monkeypatch):
        for case in workload_suite(n):
            plan = TransformedLoopNest.from_report(analyze_nest(case.nest)).execution_plan()
            expected = _fresh(plan).key_table()
            monkeypatch.setattr(ir, "_EXPANSION_ROW_LIMIT", 1)
            capped = _fresh(plan)
            if expected.shape[0] > 1:
                assert capped._expanded_key_table() is None, case.name
            table = capped.key_table()
            monkeypatch.undo()
            assert np.array_equal(table, expected), case.name
            assert table.dtype == np.int64 and table.flags["C_CONTIGUOUS"]
            assert capped.key_list() == _fresh(plan).key_list(), case.name
