"""The transformed iteration space.

A :class:`TransformedLoopNest` bundles a loop nest with the unimodular
transformation ``T`` chosen by the analysis (and, optionally, the
partitioning of the remaining sequential levels).  It knows how to:

* compute the loop bounds of the new indices with Fourier–Motzkin
  elimination (exactly as the paper does for the Section 4.1 example),
* enumerate the new iteration space in lexicographic order,
* map new index vectors back to original index vectors (``i = j @ T^{-1}``),
* answer which loops are parallel and how iterations group into independent
  chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.partition import PartitioningResult
from repro.core.pipeline import ParallelizationReport
from repro.exceptions import CodegenError, ShapeError
from repro.intlin.fourier_motzkin import VariableBounds, loop_bounds_from_inequalities
from repro.intlin.matrix import (
    Matrix,
    _unimodular_inverse,
    identity_matrix,
    mat_copy,
    mat_equal,
    unimodular_inverse,
    vec_mat_mul,
)
from repro.loopnest.nest import LoopNest

__all__ = ["TransformedLoopNest"]


@dataclass
class TransformedLoopNest:
    """A loop nest together with the transformation selected for it."""

    nest: LoopNest
    transform: Matrix
    parallel_levels: Tuple[int, ...] = ()
    partitioning: Optional[PartitioningResult] = None
    new_index_names: Tuple[str, ...] = ()
    _inverse: Matrix = field(init=False, repr=False)
    _inverse_columns: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)
    _bounds: List[VariableBounds] = field(init=False, repr=False)

    def __post_init__(self):
        self.transform = mat_copy(self.transform)
        depth = self.nest.depth
        if len(self.transform) != depth:
            raise CodegenError(
                f"transformation is {len(self.transform)}x?, expected {depth}x{depth}"
            )
        inverse = unimodular_inverse(self.transform)
        if not self.new_index_names:
            self.new_index_names = tuple(f"j{k + 1}" for k in range(depth))
        if len(self.new_index_names) != depth:
            raise CodegenError("new_index_names must have one name per loop level")
        self._derive(inverse)

    def _derive(self, inverse: Optional[Matrix] = None) -> None:
        """``T^-1`` (computed unless given) and the Fourier–Motzkin bounds of
        a validated unimodular ``T``; an identity ``T`` substitutes nothing."""
        depth = self.nest.depth
        identity = [[int(i == k) for k in range(depth)] for i in range(depth)]
        system = self.nest.inequality_system()
        if self.transform == identity:
            self._inverse = identity
        else:
            self._inverse = inverse or _unimodular_inverse(self.transform)
            system = system._transformed(self._inverse)
        # Column ``k`` of T^-1 holds the weights of original index ``k``.
        self._inverse_columns = tuple(zip(*self._inverse))
        self._bounds = loop_bounds_from_inequalities(system)

    def __getstate__(self):
        # The native kernel memo holds ctypes entry points: never pickled.
        state = dict(self.__dict__)
        state.pop("_native", None)
        return state

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_report(cls, report: ParallelizationReport) -> "TransformedLoopNest":
        """The transformed nest :func:`repro.core.pipeline.analyze_nest` selected
        (whose transform is validated and unimodular already)."""
        transformed = cls.__new__(cls)
        transformed.nest = report.nest
        transformed.transform = [row[:] for row in report.transform]
        transformed.parallel_levels = report.parallel_levels
        transformed.partitioning = report.partitioning
        transformed.new_index_names = report.new_index_names
        transformed._derive()
        return transformed

    @classmethod
    def identity(cls, nest: LoopNest) -> "TransformedLoopNest":
        """The untransformed nest wrapped in the same interface."""
        return cls(nest=nest, transform=identity_matrix(nest.depth))

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        return self.nest.depth

    @property
    def inverse_transform(self) -> Matrix:
        return [row[:] for row in self._inverse]

    @property
    def is_identity(self) -> bool:
        return mat_equal(self.transform, identity_matrix(self.depth))

    @property
    def variable_bounds(self) -> List[VariableBounds]:
        """Fourier–Motzkin bounds of the new loop indices (outermost first)."""
        return list(self._bounds)

    @property
    def sequential_levels(self) -> Tuple[int, ...]:
        return tuple(k for k in range(self.depth) if k not in self.parallel_levels)

    # ------------------------------------------------------------------ #
    # index mapping
    # ------------------------------------------------------------------ #
    def original_iteration(self, new_iteration: Sequence[int]) -> Tuple[int, ...]:
        """Map a new-space index vector back to the original indices (``i = j @ T^-1``).

        Runs once per iteration on the per-chunk execution paths, so it
        multiplies with the integer columns of ``T^-1`` prepared at
        construction instead of copying and re-validating the matrix.
        """
        if len(new_iteration) != len(self._inverse_columns):
            raise ShapeError(
                f"vector of length {len(new_iteration)} incompatible with a "
                f"depth-{len(self._inverse_columns)} transformation"
            )
        return tuple([sum(map(mul, new_iteration, column)) for column in self._inverse_columns])

    def new_iteration(self, original_iteration: Sequence[int]) -> Tuple[int, ...]:
        """Map an original index vector into the new space (``j = i @ T``)."""
        return tuple(vec_mat_mul(list(original_iteration), self.transform))

    def original_env(self, new_iteration: Sequence[int]) -> Dict[str, int]:
        """Environment dict of original index names for a new-space iteration."""
        original = self.original_iteration(new_iteration)
        return {name: value for name, value in zip(self.nest.index_names, original)}

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def iterations(self) -> Iterator[Tuple[int, ...]]:
        """All new-space iterations in lexicographic order.

        Thanks to the exactness of Fourier–Motzkin scanning for unimodular
        images, the generated points are exactly ``{i @ T : i in original space}``.
        """
        yield from self._iterate(0, [])

    def _iterate(self, level: int, prefix: List[int]) -> Iterator[Tuple[int, ...]]:
        if level == self.depth:
            yield tuple(prefix)
            return
        bounds = self._bounds[level]
        lower = bounds.lower_value(prefix)
        upper = bounds.upper_value(prefix)
        if lower is None or upper is None:
            raise CodegenError(
                f"loop level {level} of the transformed nest is unbounded; "
                "the original nest must have a finite iteration space"
            )
        for value in range(lower, upper + 1):
            prefix.append(value)
            yield from self._iterate(level + 1, prefix)
            prefix.pop()

    def iteration_count(self) -> int:
        """Number of new-space iterations, in closed form.

        The transformation is unimodular and Fourier–Motzkin scanning is
        exact, so the new space is a bijective image of the original one:
        the count is the original nest's count, which
        :meth:`~repro.loopnest.nest.LoopNest.iteration_count` derives from
        the bounds symbolically instead of by enumeration.
        """
        return self.nest.iteration_count()

    # ------------------------------------------------------------------ #
    # symbolic execution plan
    # ------------------------------------------------------------------ #
    def execution_plan(self) -> "ExecutionPlan":
        """The symbolic :class:`~repro.plan.ExecutionPlan` of this nest (cached).

        The plan is a pure value object over the Fourier–Motzkin bounds and
        the independence structure; building it is O(depth) on top of the
        analysis already stored here, so consumers share one instance.
        """
        plan = getattr(self, "_plan", None)
        if plan is None:
            from repro.plan import ExecutionPlan

            plan = ExecutionPlan.from_transformed(self)
            self._plan = plan
        return plan

    # ------------------------------------------------------------------ #
    # independence structure
    # ------------------------------------------------------------------ #
    def chunk_key(self, new_iteration: Sequence[int]) -> Tuple:
        """The independence class of an iteration.

        Two iterations with different keys never depend on each other: the
        key combines the values of the parallel (zero-column) loops with the
        partition label of the sequential levels.
        """
        parallel_values = tuple(new_iteration[k] for k in self.parallel_levels)
        if self.partitioning is not None:
            label = self.partitioning.label_of(list(new_iteration))
        else:
            label = ()
        return (parallel_values, label)

    def describe(self) -> str:
        lines = [f"Transformed loop nest of {self.nest.name!r}"]
        lines.append(f"  new indices: {', '.join(self.new_index_names)}")
        if self.parallel_levels:
            names = [self.new_index_names[k] for k in self.parallel_levels]
            lines.append(f"  doall loops: {', '.join(names)}")
        if self.partitioning is not None:
            lines.append(f"  partitions: {self.partitioning.num_partitions}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
