"""The key table is an exact NumPy transcription of the discovery scan.

``ExecutionPlan.key_table()`` expands the plan level by level from its
bound table; ``_discover`` stays as the reference.  These tests pin the
table-built keys to ``[key for key, _ in plan._discover()]`` — values and
order — over the suite at small N (where fibers go empty), seeded random
nests and every shipped ``.loop`` file, raw and coalesced, and pin the two
paths that still take the keys from the scan: plans the overflow guard
refuses, and expansions past the row ceiling.

The seeded sweep runs ``KEY_TABLE_SWEEP_SEEDS`` seeds (a small fixed set
by default; CI runs a large sweep in its own job).
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import parse_loop_file
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.loopnest.builder import loop_nest
from repro.plan import ExecutionPlan, ir, optimize_plan
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
