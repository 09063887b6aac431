"""Perfectly nested loops.

A :class:`LoopNest` is the paper's program object (form (2.1)): ``n``
perfectly nested loops with unit step, affine bounds and a body that is a
sequence of array assignment statements whose subscripts are affine in the
loop indices.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import LoopNestError
from repro.intlin.fourier_motzkin import InequalitySystem, LinearInequality
from repro.loopnest.affine import AffineExpr
from repro.loopnest.array_ref import ArrayReference
from repro.loopnest.bounds import LoopBounds
from repro.loopnest.statement import Statement
from repro.loopnest.structure import structure_key

__all__ = ["LoopNest"]


class LoopNest:
    """An ``n``-fold perfectly nested loop.

    Parameters
    ----------
    index_names:
        The loop index names, outermost first.
    bounds:
        One :class:`LoopBounds` per level; level ``k`` bounds may reference
        indices ``0 .. k-1`` only.
    statements:
        The loop body, a sequence of :class:`Statement`.
    name:
        Optional human-readable name used in reports.
    """

    def __init__(
        self,
        index_names: Sequence[str],
        bounds: Sequence[LoopBounds],
        statements: Sequence[Statement],
        name: str = "loop",
    ):
        self._index_names: Tuple[str, ...] = tuple(str(n) for n in index_names)
        self._bounds: Tuple[LoopBounds, ...] = tuple(bounds)
        self._statements: Tuple[Statement, ...] = tuple(statements)
        self.name = str(name)
        self.validate()

    # ------------------------------------------------------------------ #
    # validation and basic properties
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`LoopNestError` / :class:`BoundsError` on malformed nests.

        The walk that checks the variable scopes yields the nest's canonical
        key (:func:`repro.loopnest.structure.structure_key`); the nest keeps it.
        """
        if not self._index_names:
            raise LoopNestError("a loop nest needs at least one loop index")
        if len(set(self._index_names)) != len(self._index_names):
            raise LoopNestError(f"duplicate loop index names: {self._index_names}")
        if len(self._bounds) != len(self._index_names):
            raise LoopNestError(
                f"{len(self._index_names)} indices but {len(self._bounds)} bounds"
            )
        self._structure_key = structure_key(self)
        if not self._statements:
            raise LoopNestError("a loop nest needs at least one statement")

    @property
    def depth(self) -> int:
        """Number of nested loops ``n``."""
        return len(self._index_names)

    @property
    def index_names(self) -> Tuple[str, ...]:
        return self._index_names

    @property
    def bounds(self) -> Tuple[LoopBounds, ...]:
        return self._bounds

    @property
    def statements(self) -> Tuple[Statement, ...]:
        return self._statements

    @property
    def is_rectangular(self) -> bool:
        """True if every bound is a constant (the iteration space is a box)."""
        return all(b.is_constant for b in self._bounds)

    def array_names(self) -> Set[str]:
        """Names of all arrays referenced in the body."""
        names: Set[str] = set()
        for stmt in self._statements:
            names |= stmt.arrays()
        return names

    def references(self) -> List[ArrayReference]:
        """Every array reference in the body (writes and reads), built once."""
        refs = self.__dict__.get("_references")
        if refs is None:
            refs = self._references = tuple(
                ref for k, stmt in enumerate(self._statements) for ref in stmt.references(k)
            )
        return list(refs)

    def __getstate__(self):
        # Memos are rebuilt on demand, not pickled.
        state = dict(self.__dict__)
        state.pop("_references", None)
        return state

    def write_references(self) -> List[ArrayReference]:
        """Only the written references."""
        return [r for r in self.references() if r.is_write]

    def read_references(self) -> List[ArrayReference]:
        """Only the read references."""
        return [r for r in self.references() if not r.is_write]

    # ------------------------------------------------------------------ #
    # iteration space
    # ------------------------------------------------------------------ #
    def iterations(self) -> Iterator[Tuple[int, ...]]:
        """Yield every iteration index vector in lexicographic (execution) order."""
        yield from self._iterate_level(0, {})

    def _iterate_level(self, level: int, env: Dict[str, int]) -> Iterator[Tuple[int, ...]]:
        if level == self.depth:
            yield tuple(env[name] for name in self._index_names)
            return
        bound = self._bounds[level]
        lower = bound.lower_value(env)
        upper = bound.upper_value(env)
        name = self._index_names[level]
        for value in range(lower, upper + 1):
            env[name] = value
            yield from self._iterate_level(level + 1, env)
        env.pop(name, None)

    def iteration_count(self) -> int:
        """Total number of iterations, in closed form where possible.

        Rectangular nests are a product of extents; non-rectangular affine
        nests collapse by exact symbolic summation
        (:func:`repro.loopnest.counting.closed_form_count`), falling back to
        a tuple-free counting walk only when interval arithmetic cannot
        prove the summation identity applies.
        """
        if self.is_rectangular:
            total = 1
            for bound in self._bounds:
                total *= bound.extent({})
            return total
        from repro.loopnest.counting import nest_iteration_count

        return nest_iteration_count(self._index_names, self._bounds)

    def contains_iteration(self, iteration: Sequence[int]) -> bool:
        """True if the index vector lies within the loop bounds."""
        if len(iteration) != self.depth:
            return False
        env: Dict[str, int] = {}
        for name, value, bound in zip(self._index_names, iteration, self._bounds):
            if not (bound.lower_value(env) <= value <= bound.upper_value(env)):
                return False
            env[name] = int(value)
        return True

    def env_for(self, iteration: Sequence[int]) -> Dict[str, int]:
        """Map an index vector to an environment dict ``{name: value}``."""
        if len(iteration) != self.depth:
            raise LoopNestError(
                f"iteration vector of length {len(iteration)} for a depth-{self.depth} nest"
            )
        return {name: int(v) for name, v in zip(self._index_names, iteration)}

    # ------------------------------------------------------------------ #
    # constraint-system view (used by Fourier-Motzkin based code generation)
    # ------------------------------------------------------------------ #
    def inequality_system(self) -> InequalitySystem:
        """The iteration space as a system of affine inequalities over the indices."""
        n = self.depth
        system = InequalitySystem(n)
        positions = {name: k for k, name in enumerate(self._index_names)}
        for level, bound in enumerate(self._bounds):
            # i_level >= lower  ->  lower - i_level <= 0, and
            # i_level <= upper  ->  i_level - upper <= 0, over the (validated)
            # outer indices the bounds use.
            lower, upper = [0] * n, [0] * n
            lower[level], upper[level] = -1, 1
            for name, coeff in bound.lower.terms:
                lower[positions[name]] += coeff
            for name, coeff in bound.upper.terms:
                upper[positions[name]] -= coeff
            system.add(LinearInequality(tuple(lower), -bound.lower.constant))
            system.add(LinearInequality(tuple(upper), bound.upper.constant))
        return system

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def with_statements(self, statements: Sequence[Statement], name: Optional[str] = None) -> "LoopNest":
        """A copy of this nest with a different body."""
        return LoopNest(self._index_names, self._bounds, statements, name or self.name)

    def rename(self, name: str) -> "LoopNest":
        """A copy with a different report name."""
        return LoopNest(self._index_names, self._bounds, self._statements, name)

    def __repr__(self) -> str:
        return (
            f"LoopNest(name={self.name!r}, depth={self.depth}, "
            f"statements={len(self._statements)})"
        )

    def __str__(self) -> str:
        from repro.loopnest.codegen import render_loop_nest

        return render_loop_nest(self)
