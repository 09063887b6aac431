"""Solving the dependence equations of a reference pair.

Implements Section 2.2/2.3 of the paper: the diophantine system ``x @ A = c``
(with ``x = (i, j)``) is solved with the echelon-based solver; the general
solution is projected onto the distance ``d = j - i``, yielding

* a constant offset ``d0`` (the projection of the particular solution), and
* one generator per free variable (the projections of the homogeneous basis).

The *lattice generators* of the pair are the nonzero free generators together
with ``d0`` (equation (2.15)); stacking the generators of every pair and
taking the Hermite normal form produces the pseudo distance matrix
(equation (2.21)), which is done in :mod:`repro.core.pdm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub
from typing import List, Optional, Sequence, Tuple

from repro.diophantine.linear_system import DiophantineSolution, _solve_reduced, solve_row_system
from repro.dependence.distance import normalize_distance
from repro.dependence.equations import (
    ReferencePair,
    _equation_system,
    dependence_equation_system,
    reference_pairs,
)
from repro.intlin.echelon import _row_echelon
from repro.intlin.lattice import Lattice
from repro.intlin.matrix import Matrix, Vector, is_zero_vector
from repro.loopnest.nest import LoopNest
from repro.utils.validation import trusted_record

__all__ = ["DependenceSolution", "solve_reference_pair", "analyze_loop_dependences"]


def _project_distance(solution_vector: Sequence[int], depth: int) -> List[int]:
    """Project a solution ``x = (i, j)`` of length ``2n`` onto ``d = j - i``."""
    return list(map(sub, solution_vector[depth:], solution_vector[:depth]))


@dataclass(frozen=True)
class DependenceSolution:
    """The general solution of one reference pair's dependence equations."""

    pair: ReferencePair
    depth: int
    consistent: bool
    offset: Optional[Vector]
    """Projection ``d0`` of the particular solution (None when inconsistent)."""
    free_generators: Matrix
    """Projections of the homogeneous solution basis (may contain zero rows)."""
    lattice_generators: Matrix
    """Nonzero free generators plus the offset (if nonzero): equation (2.15)."""
    raw: Optional[DiophantineSolution] = field(default=None, repr=False, compare=False)

    @property
    def has_dependence(self) -> bool:
        """True if the equations admit at least one integer solution.

        Note that a consistent system may still have no *realized* dependence
        within finite loop bounds; the analytical PDM is intentionally
        conservative, exactly as in the paper.
        """
        return self.consistent

    @property
    def is_uniform(self) -> bool:
        """True if the dependence distance is a single constant vector
        (Corollary 5: no free generators contribute to the distance)."""
        if not self.consistent:
            return False
        return all(is_zero_vector(row) for row in self.free_generators)

    def distance_lattice(self) -> Lattice:
        """The lattice spanned by this pair's generators."""
        return Lattice(self.lattice_generators, dimension=self.depth)

    def describe(self) -> str:
        if not self.consistent:
            return f"{self.pair.describe()}: independent (equations inconsistent)"
        gen = ", ".join(str(tuple(row)) for row in self.lattice_generators) or "none"
        return (
            f"{self.pair.describe()}: offset {tuple(self.offset)}, "
            f"generators [{gen}]"
        )


def solve_reference_pair(pair: ReferencePair, index_names: Sequence[str]) -> DependenceSolution:
    """Solve the dependence equations of one reference pair."""
    matrix, constant = dependence_equation_system(pair, index_names)
    return _pair_solution(pair, len(index_names), solve_row_system(matrix, constant))


def _pair_solution(pair: ReferencePair, depth: int, raw: DiophantineSolution) -> DependenceSolution:
    """The pair's solution from the general solution ``raw`` of its system."""
    if not raw.consistent:
        offset, free_generators, lattice_generators = None, [], []
    else:
        offset = _project_distance(raw.particular, depth)
        free_generators = [_project_distance(row, depth) for row in raw.homogeneous_basis]
        lattice_generators = [row[:] for row in free_generators if any(row)]
        if any(offset):
            lattice_generators.append(offset[:])
    return trusted_record(
        DependenceSolution,
        pair=pair,
        depth=depth,
        consistent=raw.consistent,
        offset=offset,
        free_generators=free_generators,
        lattice_generators=lattice_generators,
        raw=raw,
    )


def analyze_loop_dependences(nest: LoopNest, include_self: bool = True) -> List[DependenceSolution]:
    """Solve the dependence equations of every reference pair of a loop nest.

    Each reference's access matrix is built once, and pairs whose systems
    share a matrix (only the constants differ) share its echelon reduction.
    """
    names = nest.index_names
    accesses = {}  # id(reference) -> (access matrix as tuples, offsets)
    echelons = {}  # (F, G) -> echelon reduction of the pair's system matrix
    solutions = []
    for pair in reference_pairs(nest, include_self=include_self):
        for ref in (pair.first, pair.second):
            if id(ref) not in accesses:
                matrix, offsets = ref.access_matrix(names)
                accesses[id(ref)] = (tuple(map(tuple, matrix)), offsets)
        f_matrix, f_offset = accesses[id(pair.first)]
        g_matrix, g_offset = accesses[id(pair.second)]
        system, constant = _equation_system(f_matrix, f_offset, g_matrix, g_offset)
        reduced = echelons.get((f_matrix, g_matrix))
        if reduced is None:
            reduced = echelons[f_matrix, g_matrix] = _row_echelon(system)
        solutions.append(_pair_solution(pair, len(names), _solve_reduced(reduced, constant)))
    return solutions
