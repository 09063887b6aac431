"""Sequential interpretation of loop nests.

The interpreter executes a nest statement by statement on an
:class:`~repro.runtime.arrays.ArrayStore`.  It is deliberately simple and
direct — it is the semantic reference against which the transformed
executions (chunk schedules, emitted Python code, parallel executors) are
validated.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.exceptions import ExecutionError
from repro.loopnest.nest import LoopNest
from repro.runtime.arrays import ArrayStore

__all__ = ["execute_nest", "execute_transformed", "execute_chunk"]


def _execute_body(nest: LoopNest, env: Mapping[str, int], store: ArrayStore) -> None:
    for stmt in nest.statements:
        value = stmt.rhs.evaluate(env, store)
        location = stmt.target.subscript_values(env)
        store[stmt.target.array][location] = value


def execute_nest(nest: LoopNest, store: ArrayStore, max_iterations: Optional[int] = None) -> ArrayStore:
    """Execute the original nest sequentially (lexicographic order) in place."""
    count = 0
    for iteration in nest.iterations():
        count += 1
        if max_iterations is not None and count > max_iterations:
            raise ExecutionError(f"iteration budget of {max_iterations} exceeded")
        _execute_body(nest, nest.env_for(iteration), store)
    return store


def execute_transformed(
    transformed: TransformedLoopNest, store: ArrayStore, order: str = "lexicographic"
) -> ArrayStore:
    """Execute a transformed nest in place.

    ``order`` selects the traversal of the new iteration space:

    * ``"lexicographic"`` — the legal sequential order of the transformed loop;
    * ``"chunks"`` — chunk after chunk (each chunk internally in order), the
      order a parallel run would use with a single worker.

    Both must produce results identical to the original nest when the
    transformation is legal; the test-suite checks exactly that.
    """
    nest = transformed.nest
    if order == "lexicographic":
        iterations: Iterable[Tuple[int, ...]] = transformed.iterations()
    elif order == "chunks":
        # Chunk-major order straight off the symbolic plan: chunks and
        # their iterations are derived lazily, nothing is materialized.
        iterations = (
            iteration
            for chunk in transformed.execution_plan().chunks()
            for iteration in chunk.iterations
        )
    else:
        raise ExecutionError(f"unknown execution order {order!r}")

    for new_iteration in iterations:
        env = transformed.original_env(new_iteration)
        _execute_body(nest, env, store)
    return store


def execute_chunk(transformed: TransformedLoopNest, chunk, store: ArrayStore) -> None:
    """Execute one chunk's iterations, in order, in place.

    ``chunk`` is a lazy :class:`~repro.plan.ChunkView` of a plan or a
    materialized :class:`~repro.codegen.schedule.Chunk`; only its
    ``iterations`` (transformed-space index vectors) are read.
    """
    nest = transformed.nest
    for new_iteration in chunk.iterations:
        _execute_body(nest, transformed.original_env(new_iteration), store)
