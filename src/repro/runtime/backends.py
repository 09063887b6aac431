"""Pluggable execution backends for transformed loop nests.

The interpreter in :mod:`repro.runtime.interpreter` walks the statement AST
once per iteration — it is the semantic *reference*, not a fast executor.
This module turns execution into a pluggable subsystem with three backends:

* ``interpreter`` — the reference semantics, unchanged;
* ``compiled`` — the loop body is emitted as Python source once (via
  :mod:`repro.codegen.python_emitter`) and ``compile()``d into a reusable
  function, removing the per-iteration AST walk;
* ``vectorized`` — iterations that the analysis proved independent are
  executed as NumPy gather/compute/scatter operations.

The vectorized backend exploits exactly the structure the paper derives: the
chunks of a legal schedule (the symbolic :class:`repro.plan.ExecutionPlan`)
never depend on each other, while iterations *inside* a chunk must stay in
order.  Since the plan IR, the backend derives its index arrays directly
from the plan's per-level (start, stop, step) ranges with ``np.arange``
products — no Python iteration tuples are ever stacked.
Execution proceeds in *rounds*: round ``r`` takes the
``r``-th iteration of every chunk — a set of pairwise-independent iterations
— and executes the whole set with fancy-indexed NumPy operations, statement
by statement.  Intra-chunk order is preserved (round ``r`` precedes round
``r + 1``) and inter-chunk order is free, so the schedule is legal whenever
the chunks are truly independent.  The wall-clock speedup of this backend is
thus precisely the parallelism the paper's method exposes.

Two safety nets keep the backend bit-identical to the interpreter:

* a *static* vectorizability check on the statement AST (unknown node kinds
  fall back to sequential execution for the whole nest);
* a *dynamic* chunk-independence check on every run: the subscripts of
  every access are evaluated vectorized up front and the whole run falls
  back to chunk-major sequential execution if any array cell is touched by
  two different chunks with at least one write — i.e. whenever the premise
  that makes round-major interleaving legal does not hold.

Math calls (``sin``, ``exp``, …) are applied elementwise through the *same*
scalar functions the interpreter uses, so even transcendental results are
bit-identical (NumPy's ufuncs may differ in the last ulp).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.exceptions import ExecutionError
from repro.plan import ChunkView, ExecutionPlan
from repro.loopnest.canonical import (
    canonical_body_key,
    constant_kind_signature,
    positional_rename,
)
from repro.loopnest.expr import (
    _BINARY_OPS,
    _CALLS,
    DIVISION_OPS,
    ArrayAccess,
    BinaryOp,
    Call,
    Constant,
    Expression,
    IndexTerm,
    UnaryOp,
)
from repro.loopnest.nest import LoopNest
from repro.runtime.arrays import ArrayStore, OffsetArray
from repro.runtime.interpreter import execute_chunk as _interpret_chunk

__all__ = [
    "ExecutionBackend",
    "InterpreterBackend",
    "CompiledBackend",
    "VectorizedBackend",
    "NativeBackend",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "available_backends",
    "DEFAULT_BACKEND",
]

DEFAULT_BACKEND = "interpreter"


# ---------------------------------------------------------------------------
# backend interface and registry
# ---------------------------------------------------------------------------

class ExecutionBackend:
    """How the iterations of a (transformed) loop nest are executed.

    A backend must be semantically indistinguishable from the interpreter:
    the differential test-suite runs every registered backend against
    :func:`repro.runtime.interpreter.execute_nest` and requires bit-identical
    array contents.
    """

    name = "abstract"

    def execute(self, transformed: TransformedLoopNest, store: ArrayStore) -> ArrayStore:
        """Execute the whole transformed nest in a legal order (in place)."""
        self.execute_plan(transformed, transformed.execution_plan(), store)
        return store

    def execute_plan(
        self,
        transformed: TransformedLoopNest,
        plan: ExecutionPlan,
        store: ArrayStore,
        chunk_indices: Optional[Sequence[int]] = None,
    ) -> str:
        """Execute (part of) a symbolic plan in place; return the engine label.

        ``chunk_indices`` selects chunks by schedule position (all when
        None) — this is how pool workers execute their groups from nothing
        but the plan.  The default walks :meth:`execute_chunk` over the
        selected lazy chunk views in schedule order, so a backend that
        implements only :meth:`execute_chunk` (including a user-registered
        one) runs every mode; array-level backends override this to
        generate their index arrays straight from the plan bounds.

        The returned label names the engine that actually ran — a backend
        that delegates returns its delegate's label (``"compiled"`` for a
        narrow vectorized run, ``"native-cc"`` for a native kernel).  It is
        the call's own outcome, so concurrent calls on one instance never
        see each other's labels.
        """
        for chunk in plan.select_chunks(chunk_indices):
            self.execute_chunk(transformed, chunk, store)
        return self.name

    def execute_chunk(
        self, transformed: TransformedLoopNest, chunk: ChunkView, store: ArrayStore
    ) -> None:
        """Execute one chunk's iterations, in order, in place."""
        raise NotImplementedError

    def parallel_plan_refusal(
        self, transformed: TransformedLoopNest, plan: ExecutionPlan
    ) -> Optional[str]:
        """Why an in-kernel parallel driver cannot run ``plan`` (None: it can).

        A backend returning None must implement
        ``execute_plan_parallel(transformed, plan, store, starts)``, which
        the ``native-parallel`` executor mode calls once for the whole plan
        with the boundaries of its per-thread chunk ranges.  The default
        has no driver; the mode then runs the plan through one serial
        :meth:`execute_plan` call.
        """
        return f"backend {self.name!r} has no in-kernel parallel driver"

    def delegation_reason(
        self, transformed: TransformedLoopNest, plan: ExecutionPlan, label: str
    ) -> Optional[str]:
        """Why a whole-plan :meth:`execute_plan` that returned ``label`` ran
        another engine than this backend's own (None: it did not).  Ask on
        the thread that made the run, right after it."""
        return None

    def prepare_plan(
        self,
        transformed: TransformedLoopNest,
        plan: Optional[ExecutionPlan] = None,
    ) -> None:
        """One-time per-program preparation (compiles, cache warm-up).

        The executor calls this inside its *setup* timing window before any
        timed execution, so backends that compile (the native backend JITs a
        kernel here) charge that work to ``setup_seconds``, never to
        ``elapsed_seconds``.  The default is a no-op.
        """


# Each thread's last delegation reason, set where a backend delegates a run.
_DELEGATION = threading.local()
_UNSET = object()

_REGISTRY: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[..., ExecutionBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites silently)."""
    _REGISTRY[str(name)] = factory


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate the backend registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ExecutionError(
            f"unknown execution backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return factory(**options)


def resolve_backend(backend) -> ExecutionBackend:
    """Accept a backend name or an already-constructed backend instance."""
    if isinstance(backend, ExecutionBackend):
        return backend
    return get_backend(str(backend))


# ---------------------------------------------------------------------------
# interpreter backend
# ---------------------------------------------------------------------------

class InterpreterBackend(ExecutionBackend):
    """The reference backend: per-iteration AST interpretation."""

    name = "interpreter"

    def execute_chunk(self, transformed, chunk, store) -> None:
        _interpret_chunk(transformed, chunk, store)


# ---------------------------------------------------------------------------
# compiled backend
# ---------------------------------------------------------------------------

def _canonical_array_mapping(nest: LoopNest) -> Tuple[Tuple[str, str], ...]:
    """``(original name, canonical name)`` pairs in canonical slot order."""
    order = native_codegen._original_array_order(nest)
    return tuple((name, f"A{slot}") for slot, name in enumerate(order))


class CompiledBackend(ExecutionBackend):
    """Execute through ``compile()``d Python emitted by the code generator.

    The loop body is rendered to source once per nest (see
    :func:`repro.codegen.python_emitter.emit_chunk_body_source`) and compiled
    into a function ``body(arrays, iterations)`` that runs the statements for
    a list of original-space index vectors.  Re-walking the expression AST
    per iteration is gone; array accesses still go through
    :class:`~repro.runtime.arrays.OffsetArray` so semantics (including
    window checks) are identical to the interpreter.
    """

    name = "compiled"

    # Compiled bodies are cached process-wide in a bounded LRU keyed by the
    # canonical depth and statements of the nest (plus the int-vs-float
    # constant signature, which the canonical key normalizes away but
    # ``//``/``%``/``**`` semantics depend on).  The body runs over explicit
    # iteration lists and never reads the loop bounds, so alpha-renamed
    # copies of one program, at any problem size, share a single compiled
    # body, and a long-running session serving arbitrary traffic stays
    # bounded.  A weak per-nest map keeps the fast path (one
    # dict hit) for repeated execution of the same nest object; it never
    # touches the nest itself, which must stay picklable for the shared
    # worker pool.
    body_cache_limit: int = 128
    _body_lru: "OrderedDict[tuple, Callable]" = OrderedDict()
    _body_lock = threading.Lock()
    _body_stats: Dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0}
    _nest_bodies: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    @classmethod
    def body_function(cls, nest: LoopNest):
        """The compiled body function of ``nest`` (canonically cached).

        The source is emitted from the positionally alpha-renamed nest
        (indices ``c1..cn``, arrays ``A0, A1, ...``) so equal structures
        compile once; the returned callable remaps the caller's store keys
        onto the canonical array names.
        """
        function = cls._nest_bodies.get(nest)
        if function is not None:
            return function
        key = (canonical_body_key(nest), constant_kind_signature(nest))
        with cls._body_lock:
            compiled = cls._body_lru.get(key)
            if compiled is not None:
                cls._body_lru.move_to_end(key)
                cls._body_stats["hits"] += 1
        if compiled is None:
            from repro.codegen.python_emitter import (
                compile_loop_function,
                emit_chunk_body_source,
            )

            renamed = positional_rename(nest)
            source = emit_chunk_body_source(renamed, function_name="run_chunk_body")
            compiled = compile_loop_function(source, "run_chunk_body")
            with cls._body_lock:
                cls._body_stats["misses"] += 1
                cls._body_lru[key] = compiled
                cls._body_lru.move_to_end(key)
                while len(cls._body_lru) > max(1, int(cls.body_cache_limit)):
                    cls._body_lru.popitem(last=False)
                    cls._body_stats["evictions"] += 1
        mapping = _canonical_array_mapping(nest)
        if all(original == canonical for original, canonical in mapping):
            function = compiled
        else:

            def function(arrays, iterations, _body=compiled, _mapping=mapping):
                view = {canonical: arrays[original] for original, canonical in _mapping}
                return _body(view, iterations)

        cls._nest_bodies[nest] = function
        return function

    @classmethod
    def body_cache_info(cls) -> Dict[str, int]:
        with cls._body_lock:
            return {
                "size": len(cls._body_lru),
                "limit": int(cls.body_cache_limit),
                **cls._body_stats,
            }

    @classmethod
    def clear_body_cache(cls) -> None:
        with cls._body_lock:
            cls._body_lru.clear()
            for stat in cls._body_stats:
                cls._body_stats[stat] = 0
        cls._nest_bodies = weakref.WeakKeyDictionary()

    def execute_chunk(self, transformed, chunk, store) -> None:
        body = self.body_function(transformed.nest)
        originals = [transformed.original_iteration(it) for it in chunk.iterations]
        body(store, originals)


# ---------------------------------------------------------------------------
# vectorized backend
# ---------------------------------------------------------------------------

def _plan_index_block(view: ChunkView, depth: int) -> np.ndarray:
    """One chunk's (size, depth) new-space index matrix, from the plan.

    Separable chunks are pure products of per-level arithmetic ranges, so
    the matrix is ``np.arange`` per level + ``meshgrid`` — the axes-major
    reshape reproduces the transformed lexicographic order exactly.  Only
    non-separable chunks fill the matrix from the lazy generator.
    """
    ranges = view.value_ranges()
    if ranges is not None:
        if not ranges:
            return np.empty((0, depth), dtype=np.int64)
        axes = [
            np.arange(start, stop + 1, step, dtype=np.int64)
            for start, stop, step in ranges
        ]
        lengths = [axis.shape[0] for axis in axes]
        total = 1
        for length in lengths:
            total *= length
        block = np.empty((total, depth), dtype=np.int64)
        inner = total
        for level, axis in enumerate(axes):
            # Cartesian product in lexicographic order: level k repeats each
            # value over the inner extent and tiles over the outer one.
            inner //= lengths[level]
            column = np.repeat(axis, inner) if inner > 1 else axis
            block[:, level] = np.tile(column, total // (lengths[level] * inner))
        return block
    rows = list(view.iterations)
    if not rows:
        return np.empty((0, depth), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def _nest_is_vectorizable(nest: LoopNest) -> bool:
    """Static check: every expression node kind has a vectorized evaluation."""

    def supported(expr: Expression) -> bool:
        if isinstance(expr, (Constant, IndexTerm, ArrayAccess)):
            return True
        if isinstance(expr, BinaryOp):
            return supported(expr.left) and supported(expr.right)
        if isinstance(expr, UnaryOp):
            return supported(expr.operand)
        if isinstance(expr, Call):
            return expr.name in _CALLS and all(supported(a) for a in expr.args)
        return False

    return all(supported(stmt.rhs) for stmt in nest.statements)


def _vec_affine(affine, env: Dict[str, np.ndarray]):
    """Evaluate an AffineExpr over column vectors (returns array or int)."""
    total = affine.constant
    for name, coeff in affine.coefficients.items():
        total = total + coeff * env[name]
    return total


def _index_terms(expr: Expression):
    """All IndexTerm nodes of an expression tree."""
    if isinstance(expr, IndexTerm):
        yield expr
    elif isinstance(expr, BinaryOp):
        yield from _index_terms(expr.left)
        yield from _index_terms(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from _index_terms(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from _index_terms(arg)


def _subscript_offsets(
    array_name: str, array: OffsetArray, subscripts, env: Dict[str, np.ndarray], count: int
) -> Tuple[np.ndarray, ...]:
    """Per-dimension zero-based offsets of an access for all round iterations.

    Raises :class:`ExecutionError` if any subscript leaves the declared
    window — fancy indexing would otherwise wrap negative offsets silently.
    """
    offsets: List[np.ndarray] = []
    for k, sub in enumerate(subscripts):
        values = _vec_affine(sub, env)
        off = np.asarray(values - array.origin[k], dtype=np.int64)
        if off.ndim == 0:
            off = np.full(count, int(off), dtype=np.int64)
        extent = array.data.shape[k]
        if off.size and (int(off.min()) < 0 or int(off.max()) >= extent):
            raise ExecutionError(
                f"subscript of {array_name!r} leaves the declared window in "
                f"dimension {k} (origin {array.origin[k]}, extent {extent})"
            )
        offsets.append(off)
    return tuple(offsets)


class VectorizedBackend(ExecutionBackend):
    """Round-based NumPy execution of the independent-chunk schedule.

    A round that raises (a zero divisor, a domain error, ...) would leave
    every chunk's earlier rounds written, not the chunk-major prefix a
    serial run leaves.  So the backend first puts back the cells the run
    wrote, then replays it chunk-major through the compiled body, which
    raises the interpreter's exception after the interpreter's partial
    writes.  A subscript leaving its window replays the same way.

    Every run also checks that no array cell is accessed by two different
    chunks with at least one write — the premise that makes *any*
    round-major interleaving legal.  When the check fails the run replays
    chunk-major through the compiled body and
    ``stats["illegal_schedule_fallbacks"]`` counts it.  The check is one
    sort + segmented reduction per array: a defense-in-depth net under the
    legality theorems.

    Parameters
    ----------
    min_parallel_width:
        NumPy call overhead dominates narrow rounds, so a schedule with
        fewer than this many chunks is delegated wholesale to the compiled
        backend (rounds can never be wider than the chunk count).  The
        differential tests construct the backend with ``min_parallel_width=2``
        to force the round path even on tiny schedules.
    """

    name = "vectorized"

    def __init__(self, min_parallel_width: int = 8):
        self.min_parallel_width = max(2, int(min_parallel_width))
        self.stats: Dict[str, int] = {
            "rounds": 0,
            "vectorized_rounds": 0,
            "fallback_rounds": 0,
            "vectorized_iterations": 0,
            "fallback_iterations": 0,
            "delegated_runs": 0,
            "illegal_schedule_fallbacks": 0,
            "error_replays": 0,
        }

    # ------------------------------------------------------------------ #
    def _delegation(self, transformed, chunks: int) -> Optional[str]:
        """Why a run of ``chunks`` chunks goes to the compiled backend
        before any round (None: the rounds run)."""
        if not _nest_is_vectorizable(transformed.nest):
            return "the body is not vectorizable"
        if chunks < self.min_parallel_width:
            return (
                f"a narrow schedule of {chunks} chunks, "
                f"under min_parallel_width {self.min_parallel_width}"
            )
        return None

    def delegation_reason(self, transformed, plan, label) -> Optional[str]:
        return None if label == self.name else _DELEGATION.reason

    def execute_plan(self, transformed, plan, store, chunk_indices=None) -> str:
        """Round-based execution with index arrays generated from the plan.

        Separable chunks become ``np.arange`` + ``meshgrid`` products of the
        plan's per-level (start, stop, step) ranges — no Python-level
        iteration tuples exist at any point; only genuinely non-separable
        chunks fall back to filling their block from the lazy generator.
        Returns ``"compiled"`` when the compiled body ran instead of the
        rounds (a narrow selection, an unvectorizable body, a replay).
        """
        views = plan.select_chunks(chunk_indices)
        if not views:
            return self.name
        why = self._delegation(transformed, len(views))
        if why is not None:
            self.stats["delegated_runs"] += 1
        else:
            blocks = [_plan_index_block(view, plan.depth) for view in views]
            all_new = np.concatenate(blocks)
            sizes = np.asarray([block.shape[0] for block in blocks], dtype=np.int64)
            fallback = self._execute_packed(transformed, store, all_new, sizes)
            if fallback is None:
                return self.name
            # Not the independent partition the analysis promised, or an
            # error to raise the way a serial run does: execute chunk-major
            # (the interpreter's order) through the compiled backend instead.
            self.stats[fallback] += 1
            why = (
                "the schedule failed the dynamic independence check"
                if fallback == "illegal_schedule_fallbacks"
                else "a round raised or a subscript left its window"
            )
        _DELEGATION.reason = why
        return CompiledBackend().execute_plan(
            transformed, plan, store, chunk_indices=chunk_indices
        )

    def _execute_packed(self, transformed, store, all_new, sizes) -> Optional[str]:
        """Run the rounds for a chunk-major (total, depth) index matrix.

        Returns ``None`` on success.  Otherwise the store holds no write of
        this call, and the returned stats key names why the caller must
        replay chunk-major: the dynamic independence check rejected the
        schedule (``"illegal_schedule_fallbacks"``), or a subscript left its
        window or a round raised (``"error_replays"``).
        """
        nest = transformed.nest
        total_rows = int(all_new.shape[0])
        if total_rows == 0:
            return None
        inverse = np.asarray(transformed.inverse_transform, dtype=np.int64)
        starts = np.zeros(len(sizes), dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        round_ids = np.arange(total_rows, dtype=np.int64) - np.repeat(starts, sizes)
        chunk_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        order = np.argsort(round_ids, kind="stable")
        originals = (all_new @ inverse)[order]
        round_ids = round_ids[order]
        chunk_ids = chunk_ids[order]
        num_rounds = int(round_ids[-1]) + 1
        bounds = np.searchsorted(round_ids, np.arange(num_rounds + 1))
        env = {name: originals[:, k] for k, name in enumerate(nest.index_names)}
        total = originals.shape[0]

        # Offsets of every distinct array access and the values of every
        # IndexTerm, over all iterations at once (equal nodes share an
        # entry).  The window check of the interpreter happens here, up
        # front.
        offset_cache: Dict[object, Tuple[np.ndarray, ...]] = {}
        term_cache: Dict[object, object] = {}
        accesses: List[Tuple[ArrayAccess, bool]] = []
        for stmt in nest.statements:
            accesses.append((stmt.target, True))
            accesses.extend((read, False) for read in stmt.rhs.array_accesses())
            for term in _index_terms(stmt.rhs):
                if term not in term_cache:
                    term_cache[term] = _vec_affine(term.affine, env)
        for access, _ in accesses:
            if access.array not in store:
                raise ExecutionError(
                    f"array {access.array!r} is not defined in the store"
                )
            if access not in offset_cache:
                try:
                    offset_cache[access] = _subscript_offsets(
                        access.array, store[access.array], access.subscripts, env, total
                    )
                except ExecutionError:
                    return "error_replays"

        if not self._chunks_are_independent(
            accesses, offset_cache, store, chunk_ids
        ):
            # Two chunks share a cell with a write: the schedule is not the
            # independent partition the analysis promised, so *no* round
            # interleaving is known to be legal.  The caller executes
            # chunk-major (the interpreter's order) instead.
            return "illegal_schedule_fallbacks"

        # ---- execute round by round ----
        body = CompiledBackend.body_function(nest)
        # The cells this call writes, before it writes them: only this
        # call's chunks touch them, so putting them back after an error is
        # safe even while other groups write the same arrays.
        written = [
            (store[stmt.target.array].data, offset_cache[stmt.target])
            for stmt in nest.statements
        ]
        saved = [data[offsets] for data, offsets in written]
        try:
            for r in range(num_rounds):
                lo, hi = int(bounds[r]), int(bounds[r + 1])
                count = hi - lo
                self.stats["rounds"] += 1
                if count < 2:
                    self.stats["fallback_rounds"] += 1
                    self.stats["fallback_iterations"] += count
                    body(store, [tuple(int(v) for v in row) for row in originals[lo:hi]])
                    continue
                self.stats["vectorized_rounds"] += 1
                self.stats["vectorized_iterations"] += count
                window = slice(lo, hi)
                for stmt in nest.statements:
                    values = self._evaluate(
                        stmt.rhs, offset_cache, term_cache, window, store, count
                    )
                    target = store[stmt.target.array]
                    offsets = tuple(off[window] for off in offset_cache[stmt.target])
                    target.data[offsets] = values
        except (ArithmeticError, ValueError):
            # What a loop body raises: a zero divisor, a math domain or
            # range error.
            for (data, offsets), values in zip(written, saved):
                data[offsets] = values
            return "error_replays"
        return None

    # ------------------------------------------------------------------ #
    def _chunks_are_independent(
        self,
        accesses: Sequence[Tuple[ArrayAccess, bool]],
        offset_cache: Dict[object, Tuple[np.ndarray, ...]],
        store: ArrayStore,
        chunk_ids: np.ndarray,
    ) -> bool:
        """True if no array cell is accessed by two different chunks with a write.

        This is the full premise of round-major execution (Lemma 1 /
        Theorem 2): with independent chunks any interleaving that preserves
        intra-chunk order is legal, including the vectorized rounds (which
        contain at most one iteration of each chunk).  Checking cells shared
        *within* a round would be insufficient — a cross-round, cross-chunk
        conflict also reorders execution relative to the chunk-major
        reference.  One sort + segmented reduction per array, all NumPy.
        """
        total = chunk_ids.shape[0]
        per_array: Dict[str, List[Tuple[np.ndarray, bool]]] = {}
        for access, is_write in accesses:
            flat = np.ravel_multi_index(offset_cache[access], store[access.array].data.shape)
            per_array.setdefault(access.array, []).append((flat, is_write))
        for records in per_array.values():
            cells = np.concatenate([flat for flat, _ in records])
            owners = np.concatenate([chunk_ids for _ in records])
            writes = np.concatenate(
                [np.full(total, is_write, dtype=np.int8) for _, is_write in records]
            )
            order = np.argsort(cells, kind="stable")
            cells, owners, writes = cells[order], owners[order], writes[order]
            starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
            owner_min = np.minimum.reduceat(owners, starts)
            owner_max = np.maximum.reduceat(owners, starts)
            any_write = np.maximum.reduceat(writes, starts)
            if bool(np.any((owner_min != owner_max) & (any_write > 0))):
                return False
        return True

    def _evaluate(
        self, expr: Expression, offset_cache, term_cache, window, store: ArrayStore, count: int
    ):
        """Vectorized expression evaluation (bit-identical to the interpreter)."""
        if isinstance(expr, Constant):
            return expr.value
        if isinstance(expr, IndexTerm):
            value = term_cache[expr]
            return value[window] if np.ndim(value) else value
        if isinstance(expr, ArrayAccess):
            offsets = tuple(off[window] for off in offset_cache[expr])
            return store[expr.array].data[offsets]
        if isinstance(expr, BinaryOp):
            left = self._evaluate(expr.left, offset_cache, term_cache, window, store, count)
            right = self._evaluate(expr.right, offset_cache, term_cache, window, store, count)
            if expr.op in DIVISION_OPS and bool(np.any(np.asarray(right) == 0)):
                # NumPy would warn and yield inf/nan/0 where the interpreter
                # raises; match the interpreter's error behavior instead.
                raise ZeroDivisionError(f"division by zero in {expr.to_source()}")
            return _BINARY_OPS[expr.op](left, right)
        if isinstance(expr, UnaryOp):
            value = self._evaluate(expr.operand, offset_cache, term_cache, window, store, count)
            return -value if expr.op == "-" else value
        if isinstance(expr, Call):
            args = [
                self._evaluate(a, offset_cache, term_cache, window, store, count)
                for a in expr.args
            ]
            function = _CALLS[expr.name]
            if all(np.ndim(a) == 0 for a in args):
                return function(*args)
            # Apply the interpreter's scalar function elementwise: NumPy's
            # transcendental ufuncs can differ in the last ulp, which would
            # break the bit-identical contract of the differential harness.
            columns = [
                np.full(count, a) if np.ndim(a) == 0 else np.asarray(a) for a in args
            ]
            out = np.empty(count, dtype=np.float64)
            for i in range(count):
                out[i] = function(*(column[i] for column in columns))
            return out
        raise ExecutionError(  # pragma: no cover - guarded by _nest_is_vectorizable
            f"expression node {type(expr).__name__} has no vectorized evaluation"
        )


# ---------------------------------------------------------------------------
# native backend
# ---------------------------------------------------------------------------

class NativeBackend(ExecutionBackend):
    """Machine-code execution of the plan's chunks.

    :mod:`repro.codegen.native` compiles one specialized C kernel per
    canonical program with the system compiler and loads it through
    ctypes.  A run of the whole plan hands it only the plan's bound table
    (:meth:`~repro.plan.ExecutionPlan.bound_table`): the native chunk scan finds
    the chunks in schedule order and runs them as it finds them, so no key
    table is built.  A selection of chunks by index, and a plan the scan
    cannot deduplicate (:meth:`~repro.plan.ExecutionPlan.scan_stamps`),
    hands it key rows from :meth:`~repro.plan.ExecutionPlan.key_table`
    instead.  Either way the kernel evaluates each level's bounds and steps
    every chunk as nested native loops directly on the store's float64
    buffers — zero per-iteration Python work, GIL released for the
    duration of a call.  Every plan shape compiles: shifting partition
    targets, coupled bounds and coalesced blocks included.

    The backend degrades automatically: when there is no engine (no C
    compiler, or ``REPRO_NATIVE_ENGINE`` turns it off), the kernel build
    fails (a compiler error, an unusable cache directory), the nest uses
    expressions outside the kernel subset, the plan's int64 overflow guard
    refuses its tables, or an array's layout cannot be marshalled, the run
    is delegated to the vectorized backend (itself pinned bit-identical to
    the interpreter) and ``stats["fallback_runs"]`` counts it.  The
    instance holds no kernel — kernels live in the module-level cache — so
    it pickles cheaply into shared-pool programs, and every worker reuses
    the parent's on-disk kernel artifact instead of recompiling.

    Compile time is charged to the executor's setup window via
    :meth:`prepare_plan`, never to measured execution time.
    """

    name = "native"

    def __init__(self):
        self.stats: Dict[str, float] = {
            "native_runs": 0,
            "native_chunks": 0,
            "fallback_runs": 0,
            "compile_seconds": 0.0,
        }
        self._fallback = VectorizedBackend()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _program(transformed, take: bool = False):
        """The program :meth:`prepare_plan` looked up for this run, else a
        fresh lookup.  The run's execute call takes it (``take``), so it
        lives for one run and stays out of the transformed nest's pickles."""
        state = transformed.__dict__
        program = state.pop("_native", _UNSET) if take else state.get("_native", _UNSET)
        if program is _UNSET:
            program = native_codegen.native_program_for(transformed)
        return program

    def prepare_plan(self, transformed, plan=None) -> None:
        started = time.perf_counter()
        transformed._native = native_codegen.native_program_for(transformed)
        self.stats["compile_seconds"] += time.perf_counter() - started

    def _raise_native_error(self, code: int, transformed) -> None:
        name = transformed.nest.name
        if code == native_codegen.ERR_WINDOW:
            raise ExecutionError(
                f"subscript leaves the declared array window while executing "
                f"{name!r} natively"
            )
        if code == native_codegen.ERR_ZERO_DIV:
            raise ZeroDivisionError("float division by zero")
        if code == native_codegen.ERR_DOMAIN:
            raise ValueError("math domain error")
        if code == native_codegen.ERR_OVERFLOW:
            raise OverflowError("math range error")
        raise ExecutionError(  # pragma: no cover - codes are closed
            f"native kernel returned unknown status {code}"
        )

    def _delegate_plan(self, transformed, plan, store, chunk_indices, why: str) -> str:
        self.stats["fallback_runs"] += 1
        label = self._fallback.execute_plan(
            transformed, plan, store, chunk_indices=chunk_indices
        )
        inner = self._fallback.delegation_reason(transformed, plan, label)
        _DELEGATION.reason = f"{why}; {inner}" if inner else why
        return label

    def execute_plan(self, transformed, plan, store, chunk_indices=None) -> str:
        program = self._program(transformed, take=True)
        if program is None:
            why = self._no_program_reason(transformed)
            return self._delegate_plan(transformed, plan, store, chunk_indices, why)
        # The whole plan: the kernel finds the chunks itself, and the plan
        # keeps the count it found.
        outcome = program.scan(store, plan) if chunk_indices is None else None
        if outcome is not None:
            code, n_chunks = outcome
            if code == native_codegen.OK:
                plan.record_chunk_count(n_chunks)
        else:
            packed = native_codegen.packed_ranges_for(plan, chunk_indices)
            if packed is None:
                why = "the plan's tables exceed the int64 overflow guard"
                return self._delegate_plan(transformed, plan, store, chunk_indices, why)
            code = program.execute(store, packed)
            if code is None:
                why = "the kernel cannot take the store's arrays"
                return self._delegate_plan(transformed, plan, store, chunk_indices, why)
            n_chunks = packed.n_chunks
        if code != native_codegen.OK:
            self._raise_native_error(code, transformed)
        self.stats["native_runs"] += 1
        self.stats["native_chunks"] += n_chunks
        return "native-cc"

    # ------------------------------------------------------------------ #
    # in-kernel parallel driver
    # ------------------------------------------------------------------ #
    @staticmethod
    def _no_program_reason(transformed) -> str:
        """Why the nest has no native program."""
        if native_codegen.resolve_engine() is None:
            return "no native engine"
        if native_codegen.nest_is_native_supported(transformed.nest):
            return "the native kernel build failed"
        return "no native kernel for this nest"

    def delegation_reason(self, transformed, plan, label) -> Optional[str]:
        return None if label.startswith("native-") else _DELEGATION.reason

    def parallel_plan_refusal(self, transformed, plan) -> Optional[str]:
        """Why :meth:`execute_plan_parallel` cannot run this plan (None: it can).

        Compiles the kernel and builds the plan's bound table as a side
        effect (both cached), so call this inside the setup window.
        """
        program = self._program(transformed)
        if program is None:
            return self._no_program_reason(transformed)
        if not program.kernel.supports_parallel:
            return "the cc kernel has no parallel entry point"
        if plan.bound_table() is None:
            return "the plan's tables exceed the int64 overflow guard"
        return None

    def execute_plan_parallel(self, transformed, plan, store, starts) -> Optional[str]:
        """Execute the whole plan through the kernel's multithreaded entry point.

        One native call runs chunks ``starts[t]`` to ``starts[t + 1] - 1``
        (int64 boundaries from 0 to the chunk count) through the serial
        kernel on OS thread ``t`` (OpenMP or pthreads, depending on the
        artifact).  Returns the engine label (``"native-cc-openmp"`` or
        ``"native-cc-pthreads"``) on success or ``None`` when the driver is
        unavailable — in that case nothing has been written and the caller
        runs :meth:`execute_plan` instead.  Error parity matches the serial
        path: the first failing chunk *in chunk order* is raised as the
        interpreter's exception type.
        """
        program = self._program(transformed, take=True)
        if program is None or not program.kernel.supports_parallel:
            return None
        packed = native_codegen.packed_ranges_for(plan)
        if packed is None:
            return None
        code = program.execute_parallel(store, packed, starts)
        if code is None:
            return None
        if code != native_codegen.OK:
            self._raise_native_error(code, transformed)
        self.stats["native_runs"] += 1
        self.stats["native_chunks"] += packed.n_chunks
        return f"native-cc-{program.kernel.flavor}"


register_backend("interpreter", InterpreterBackend)
register_backend("compiled", CompiledBackend)
register_backend("vectorized", VectorizedBackend)
register_backend("native", NativeBackend)
