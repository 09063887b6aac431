"""The analysis' internal fast paths agree with the public entry points.

Integer tables are validated once, where they enter (the parser, the
builder and the public ``intlin``, ``diophantine``, ``dependence`` and
``core`` functions); the pipeline's internal hops then hand validated
tables to each algorithm's private implementation without copying them.
These tests pin that both doors give the same answer: the dependence pass
against :func:`solve_reference_pair`, the PDM against
:func:`hermite_normal_form`, the partitioning against
:func:`partition_full_rank`, and :meth:`TransformedLoopNest.from_report`
against the validating constructor.  The inputs are the workload suite at
several sizes and the seeded random nests of ``test_key_table`` (CI runs
``KEY_TABLE_SWEEP_SEEDS=1000``), under both placements.  Every public entry
point still rejects malformed tables.
"""

import numpy as np
import pytest

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.algorithm1 import transform_non_full_rank
from repro.core.legality import check_legal_unimodular, is_legal_unimodular
from repro.core.partition import partition_full_rank
from repro.core.pdm import PseudoDistanceMatrix
from repro.core.pipeline import analyze_nest
from repro.dependence.solver import solve_reference_pair
from repro.diophantine.linear_system import solve_row_system
from repro.exceptions import NotUnimodularError, ShapeError
from repro.intlin.echelon import is_echelon_lex_positive, row_echelon
from repro.intlin.hermite import hermite_normal_form
from repro.intlin.matrix import is_unimodular, mat_mul, unimodular_inverse
from repro.workloads.suite import workload_suite

from test_key_table import SWEEP_SEEDS, _random_deep_nest
from test_plan_equivalence import _random_nest

SUITE = [case.nest for n in (3, 7, 12, 18, 24) for case in workload_suite(n)]


def _assert_fast_paths_agree(nest, placement):
    report = analyze_nest(nest, placement=placement)
    names = nest.index_names
    generators = []
    for solution in report.pdm.pair_solutions:
        public = solve_reference_pair(solution.pair, names)
        assert (public.consistent, public.offset, public.free_generators) == (
            solution.consistent, solution.offset, solution.free_generators
        )
        assert public.lattice_generators == solution.lattice_generators
        assert public.raw.homogeneous_basis == solution.raw.homogeneous_basis
        assert public.raw.particular == solution.raw.particular
        generators.extend(solution.lattice_generators)
    expected = hermite_normal_form(generators).hermite if generators else []
    assert report.pdm.matrix == expected

    partitioning = report.partitioning
    if partitioning is not None:
        public = partition_full_rank(
            report.transformed_pdm, levels=report.sequential_levels, depth=nest.depth
        )
        assert partitioning.hnf == public.hnf
        assert partitioning.levels == public.levels
        assert partitioning.lattice.basis == public.lattice.basis
        assert partitioning.lattice == public.lattice

    fast = TransformedLoopNest.from_report(report)
    slow = TransformedLoopNest(
        nest=nest,
        transform=report.transform,
        parallel_levels=report.parallel_levels,
        partitioning=report.partitioning,
        new_index_names=report.new_index_names,
    )
    assert fast.inverse_transform == slow.inverse_transform == unimodular_inverse(fast.transform)
    assert fast.variable_bounds == slow.variable_bounds
    fast_table = fast.execution_plan().bound_table()
    slow_table = slow.execution_plan().bound_table()
    assert (fast_table is None) == (slow_table is None)
    if fast_table is not None:
        assert np.array_equal(fast_table, slow_table)


@pytest.mark.parametrize("placement", ["outer", "inner"])
def test_suite_fast_paths_agree(placement):
    for nest in SUITE:
        _assert_fast_paths_agree(nest, placement)


@pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
def test_seeded_fast_path_sweep(seed):
    rng = np.random.default_rng(seed)
    for nest in (_random_nest(rng), _random_deep_nest(rng)):
        for placement in ("outer", "inner"):
            _assert_fast_paths_agree(nest, placement)


RAGGED = [[1, 2], [3]]
FLOATS = [[1.5, 0], [0, 1]]


@pytest.mark.parametrize("table", [RAGGED, FLOATS], ids=["ragged", "fractional"])
@pytest.mark.parametrize(
    "call",
    [
        row_echelon,
        hermite_normal_form,
        is_unimodular,
        unimodular_inverse,
        is_echelon_lex_positive,
        lambda t: mat_mul(t, [[1, 0], [0, 1]]),
        lambda t: solve_row_system(t, [0, 0]),
        lambda t: is_legal_unimodular(t, [[1, 0], [0, 1]]),
        lambda t: is_legal_unimodular([[1, 0]], t),
        lambda t: check_legal_unimodular([[1, 0]], t),
        lambda t: transform_non_full_rank(t, depth=2),
        lambda t: partition_full_rank(t, depth=2),
        lambda t: PseudoDistanceMatrix(matrix=t, depth=2),
    ],
    ids=[
        "row_echelon", "hermite_normal_form", "is_unimodular", "unimodular_inverse",
        "is_echelon_lex_positive", "mat_mul", "solve_row_system", "is_legal_pdm",
        "is_legal_transform", "check_legal", "transform_non_full_rank",
        "partition_full_rank", "PseudoDistanceMatrix",
    ],
)
def test_public_entry_points_reject_malformed_tables(call, table):
    with pytest.raises(ShapeError):
        call(table)


def test_public_entry_points_reject_mismatched_shapes():
    with pytest.raises(ShapeError):
        is_legal_unimodular([[1, 0, 0]], [[1, 0], [0, 1]])
    with pytest.raises(ShapeError):
        check_legal_unimodular([[1, 0, 0]], [[1, 0], [0, 1]])
    with pytest.raises(ShapeError):
        solve_row_system([[1, 0], [0, 1]], [1])
    with pytest.raises(NotUnimodularError):
        unimodular_inverse([[1, 0, 0], [0, 1, 0]])
    nest = workload_suite(4)[0].nest
    with pytest.raises(ShapeError):
        TransformedLoopNest(nest=nest, transform=RAGGED)
    with pytest.raises(NotUnimodularError):
        TransformedLoopNest(nest=nest, transform=[[2, 0], [0, 1]])
