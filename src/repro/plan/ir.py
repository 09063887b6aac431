"""The symbolic ExecutionPlan IR.

An :class:`ExecutionPlan` sits between analysis and execution: it describes
the *transformed* iteration space parametrically — per-level Fourier–Motzkin
bounds, the parallel (zero-column) levels and the partition lattice (HNF) —
instead of materializing new-space iteration tuples.  Everything a consumer
could read off a materialized chunk list is available symbolically:

* ``chunk_keys()`` / ``chunks()`` enumerate the schedule's chunks lazily, in
  exactly the order of the reference enumeration
  :func:`~repro.codegen.schedule.build_schedule_by_enumeration` (order of
  first appearance in the lexicographic scan of the new space);
* ``iterations_for(key)`` generates one chunk's iterations on demand, in the
  transformed lexicographic order, by scanning the partitioned levels with
  stride ``d`` from a congruence-derived start value — the paper's ``doall``
  loops over the partition offsets — so enumerating a chunk costs O(chunk);
* ``chunk_count`` / ``total_iterations`` / ``chunk_size(key)`` have closed
  forms whenever the bounds structure permits (constant key-level bounds),
  falling back to lazy scans that never hold more than O(depth) state;
* ``bound_table()`` / ``key_table()`` encode the same bounds and chunk keys
  as two int64 arrays — what the native kernels execute and what
  ``chunk_sizes()`` evaluates with NumPy; the key table is itself built in
  NumPy, by expanding the plan level by level from the bound table.  A
  serial native run of the whole plan reads only the bound table: the
  native chunk scan finds the chunks itself (``scan_stamps()``);
* the plan itself pickles to a few hundred bytes — it is the *only* thing
  the parallel runtime ships to worker processes, which re-enumerate their
  assigned chunks in place.

Correctness contract (pinned by the property tests in ``tests/plan/``):
plan-driven enumeration is bit-identical — same chunk keys, same chunk
order, same per-chunk iteration order — to the reference enumeration over
``TransformedLoopNest.iterations()`` for every nest the analysis produces.

Why the ordering works: a chunk's key combines the values of the parallel
levels with the partition label (lattice residue) of the sequential levels,
so the first-appearance order of chunks is the lexicographic order of each
chunk's first iteration.  The discovery scan below visits candidate first
iterations directly: at a parallel level every value starts distinct chunks
(in value order); at a partitioned level only the first representative of
each residue class can start a chunk; sequential levels contribute nothing
to the key, so when the level provably cannot influence any key level below
(a static check on the bound coefficients), only its lower bound needs to
be visited.  Where those static invariance checks fail — non-rectangular
interactions between key and non-key levels — the scan degrades to a
deduplicating sweep that is still exact, just not sublinear.  The Python
scan (``_discover``) is the reference; the key table transcribes it into
whole-level NumPy operations, and the native chunk scan ``repro_scan``
into a C loop over the bound table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import CodegenError
from repro.intlin.fourier_motzkin import VariableBounds
from repro.utils.validation import trusted_record

__all__ = [
    "PlanLevel",
    "ChunkView",
    "ExecutionPlan",
    "LEVEL_FIELDS",
    "ROLE_CODES",
]

#: A chunk key: (values of the parallel levels, partition label).  Identical
#: to the keys produced by ``TransformedLoopNest.chunk_key``.
ChunkKey = Tuple[Tuple[int, ...], Tuple[int, ...]]

_ROLES = ("parallel", "partition", "sequential")

#: How the bound table encodes a level's role.
ROLE_CODES = {"parallel": 0, "partition": 1, "sequential": 2}

#: The fields of one level header in the bound table; ``depth`` shift
#: entries follow them (see :meth:`ExecutionPlan.bound_table`).
LEVEL_FIELDS = ("role", "step", "n_lower", "n_upper", "offset", "invariant")

#: Every integer the tables hold, and every intermediate the kernels and
#: the NumPy sizing compute from them, stays below this magnitude; a plan
#: that cannot guarantee it has no tables and runs on the Python paths.
_INT64_LIMIT = 2**62

#: Most prefix rows the NumPy key-table expansion holds at one level; a plan
#: whose expansion would pass it finds its keys with ``_discover`` instead.
_EXPANSION_ROW_LIMIT = 1 << 20

#: Most int64 dedupe stamps the native chunk scan holds (one per swept
#: level and partition label), and most partition labels it indexes; a
#: plan that would need more keeps the key table (see
#: :meth:`ExecutionPlan.scan_stamps`).
_SCAN_STAMP_LIMIT = 1 << 20

_UNBUILT = object()


@dataclass(frozen=True)
class PlanLevel:
    """Symbolic description of one transformed loop level.

    ``bounds`` are the level's Fourier–Motzkin bounds (affine in the outer
    new indices).  ``stride`` is the HNF diagonal entry for partitioned
    levels (the paper's generated-loop step) and 1 otherwise;
    ``partition_pos`` is the level's position among the partitioned levels.

    ``block`` applies to parallel levels only: with ``block == B > 1`` the
    level contributes ``value // B`` to the chunk key instead of the value
    itself, so ``B`` adjacent parallel values share one chunk (executed in
    value order).  This is how the coalescing plan pass merges adjacent
    doall ranges without leaving the symbolic representation — the blocked
    plan is still a plain :class:`ExecutionPlan`.

        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> from repro.plan import ExecutionPlan
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> [(level.role, level.stride, level.block) for level in plan.levels]
        [('parallel', 1, 1), ('sequential', 1, 1)]
    """

    role: str
    bounds: VariableBounds
    stride: int = 1
    partition_pos: int = -1
    block: int = 1

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise CodegenError(f"unknown plan level role {self.role!r}")
        if self.block < 1:
            raise CodegenError(f"plan level block must be >= 1, got {self.block}")
        if self.block > 1 and self.role != "parallel":
            raise CodegenError("only parallel plan levels can be blocked")


class ChunkView:
    """A lazy view of one chunk of an :class:`ExecutionPlan`.

    Drop-in compatible with the materialized ``Chunk`` for every consumer
    that iterates: ``iterations`` is a fresh generator on each access (the
    iterations are re-derived from the plan bounds, never stored), ``size``
    is computed closed-form when the plan allows it.

        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> from repro.plan import ExecutionPlan
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> chunk = next(plan.chunks())
        >>> chunk.size, list(chunk.iterations)[:2]
        (8, [(0, 0), (0, 1)])
    """

    __slots__ = ("plan", "key", "_size")

    def __init__(self, plan: "ExecutionPlan", key: ChunkKey):
        self.plan = plan
        self.key = key
        self._size: Optional[int] = None

    @property
    def iterations(self) -> Iterator[Tuple[int, ...]]:
        return self.plan.iterations_for(self.key)

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = self.plan.chunk_size(self.key)
        return self._size

    def __len__(self) -> int:
        return self.size

    def value_ranges(self) -> Optional[List[Tuple[int, int, int]]]:
        """Per-level ``(start, stop_inclusive, step)`` ranges, when separable.

        The chunk's iterations are then exactly the cartesian product of the
        ranges in level order.  Only the vectorized backend reads this: it
        turns the ranges into ``np.arange`` + ``meshgrid`` index arrays.
        The native kernels read the plan's key and bound tables instead.
        ``None`` when the chunk is not a product (bounds coupled to
        non-parallel levels, or shifting partition targets).
        """
        return self.plan.chunk_value_ranges(self.key)

    def __repr__(self) -> str:
        return f"ChunkView(key={self.key!r})"


class ExecutionPlan:
    """Parametric description of an independent-chunk schedule.

    Build with :meth:`from_transformed`; the plan then no longer references
    the nest — it is a pure, picklable value object over the transformed
    bounds and the independence structure (Lemma 1 + Theorem 2).  It is the
    only artifact that crosses process boundaries: a few hundred bytes
    independent of the iteration count.

        >>> import pickle
        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> plan.chunk_count, plan.total_iterations, plan.chunk_sizes()[:3]
        (8, 64, [8, 8, 8])
        >>> len(pickle.dumps(plan)) < 1024  # the wire format stays tiny
        True
    """

    #: Everything that defines the plan; caches are derived and excluded
    #: from pickling, so a shipped plan stays a few hundred bytes.
    _SPEC_FIELDS = (
        "depth",
        "levels",
        "parallel_levels",
        "partition_levels",
        "hnf",
        "total_iterations",
    )

    #: Version of the pickled spec.  Plans cross process boundaries (the
    #: worker pool), and the version stamps every disk-cache entry, which
    #: a different build may read back; a silently misinterpreted spec
    #: field would corrupt results without any error.
    #: Bump this whenever ``_SPEC_FIELDS`` or their meaning changes —
    #: unpickling rejects any other version with a clear error.
    SPEC_VERSION = 1

    def __init__(
        self,
        depth: int,
        levels: Sequence[PlanLevel],
        parallel_levels: Sequence[int],
        partition_levels: Sequence[int],
        hnf: Sequence[Sequence[int]],
        total_iterations: int,
    ):
        self.depth = int(depth)
        self.levels: Tuple[PlanLevel, ...] = tuple(levels)
        self.parallel_levels: Tuple[int, ...] = tuple(map(int, parallel_levels))
        self.partition_levels: Tuple[int, ...] = tuple(map(int, partition_levels))
        self.hnf: Tuple[Tuple[int, ...], ...] = tuple([tuple(map(int, row)) for row in hnf])
        self.total_iterations = int(total_iterations)
        if len(self.levels) != self.depth:
            raise CodegenError("plan needs exactly one PlanLevel per loop level")
        self._finalize()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_transformed(cls, transformed) -> "ExecutionPlan":
        """Derive the plan of a :class:`~repro.codegen.transformed_nest.TransformedLoopNest`."""
        depth = transformed.depth
        parallel = set(transformed.parallel_levels)
        partitioning = transformed.partitioning
        if partitioning is not None:  # __init__ normalizes the ints
            partition_levels, hnf = tuple(partitioning.levels), partitioning.hnf
        else:
            partition_levels = ()
            hnf = ()
        levels: List[PlanLevel] = []
        for k, bounds in enumerate(transformed.variable_bounds):
            role, stride, pos = "sequential", 1, -1
            if k in parallel:
                role = "parallel"
            elif k in partition_levels:
                pos = partition_levels.index(k)
                role, stride = "partition", int(hnf[pos][pos])
            # Valid by construction: PlanLevel's checks need not run again.
            levels.append(trusted_record(
                PlanLevel, role=role, bounds=bounds, stride=stride, partition_pos=pos, block=1
            ))
        return cls(
            depth=depth,
            levels=levels,
            parallel_levels=tuple(sorted(parallel)),
            partition_levels=partition_levels,
            hnf=hnf,
            total_iterations=transformed.iteration_count(),
        )

    # ------------------------------------------------------------------ #
    # pickling: spec only, caches recomputed on load
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = {name: getattr(self, name) for name in self._SPEC_FIELDS}
        state["spec_version"] = self.SPEC_VERSION
        return state

    def __setstate__(self, state) -> None:
        version = state.get("spec_version", 0)
        if version != self.SPEC_VERSION:
            raise CodegenError(
                f"refusing to load a pickled {type(self).__name__} with spec "
                f"version {version} (this build reads version "
                f"{self.SPEC_VERSION}); the artifact comes from an "
                "incompatible build — re-analyze the nest instead of reusing "
                "the stale plan"
            )
        for name in self._SPEC_FIELDS:
            setattr(self, name, state[name])
        self._finalize()

    # ------------------------------------------------------------------ #
    # derived static structure
    # ------------------------------------------------------------------ #
    def _finalize(self) -> None:
        depth = self.depth
        levels = self.levels
        key_roles = ("parallel", "partition")
        is_key = [spec.role in key_roles for spec in levels]
        # Which outer levels each level's bounds reference (nonzero
        # coefficient in any lower/upper bound expression).
        #
        # Fourier–Motzkin projections are exact over the *rationals*: an
        # integer prefix inside the scanned ranges always has a rational
        # completion, but its *integer* fiber can be empty when a deeper
        # bound expression carries a fractional coefficient (ceil(lower)
        # may exceed floor(upper)).  A level is "exact" when every bound
        # expression is integral — then in-range prefixes always complete.
        deps: List[Set[int]] = []
        exact: List[bool] = []
        for spec in levels:
            exprs = (*spec.bounds.lowers, *spec.bounds.uppers)
            deps.append({k for expr in exprs for k, coeff in enumerate(expr.numerators) if coeff})
            exact.append(all([expr.denominator == 1 for expr in exprs]))
        # Transitive influence: level k influences level u when k is
        # (directly or through intermediate levels' bounds) referenced by
        # u's bounds.  Levels form a DAG (bounds only reference outer
        # levels), so one outer-to-inner sweep suffices.
        influence: List[Set[int]] = [set(d) for d in deps]
        for level in range(depth):
            closure = set(influence[level])
            for dep in influence[level]:
                closure |= influence[dep]
            influence[level] = closure
        self._deps = deps
        self._exact = exact
        # Can this level change which chunks exist below it?  If not, the
        # discovery scan may stop after the first representative value.
        # Integrality gaps below void the guarantee (a later value's fiber
        # may be nonempty where the first one's was not), so exactness of
        # every deeper level is part of the condition.
        invariant: List[bool] = []
        for level, spec in enumerate(levels):
            flag = all(exact[level + 1 :]) and not any(
                [is_key[u] and level in influence[u] for u in range(level + 1, depth)]
            )
            if flag and spec.role == "partition":
                # Deeper partition labels shift by hnf[s][t] per extra
                # period of level s; unless the shift vanishes mod the
                # deeper stride, later representatives of the same class
                # can reach labels the first one cannot.
                s = spec.partition_pos
                flag = all(
                    self.hnf[s][t] % self.hnf[t][t] == 0
                    for t in range(s + 1, len(self.partition_levels))
                )
            invariant.append(flag)
        self._invariant = invariant
        # The levels the discovery scan sweeps and deduplicates below:
        # neither an unblocked parallel level (each value is its own key
        # component) nor invariant (representatives suffice).  The native
        # scan deduplicates by partition label alone, with one int64 stamp
        # per swept level and label, so it needs every key level below a
        # swept one to be partitioned.
        swept = [
            level
            for level, spec in enumerate(self.levels)
            if not (spec.role == "parallel" and spec.block == 1) and not invariant[level]
        ]
        labels = 1
        for pos, row in enumerate(self.hnf):
            labels *= row[pos]
        sweeps_parallel = bool(swept) and any(
            self.levels[u].role == "parallel" for u in range(swept[0] + 1, depth)
        )
        # The scan computes the label count even without a sweep, so it is
        # bounded too.
        stamps = len(swept) * labels
        self._scan_stamps: Optional[int] = (
            None if sweeps_parallel or max(labels, stamps) > _SCAN_STAMP_LIMIT else stamps
        )
        #: Chunk sizes decompose into a per-level product when no level's
        #: bounds depend on a level that varies within a chunk.  Blocked
        #: parallel levels vary within their chunk, so only unblocked
        #: parallel levels count as chunk constants.
        unblocked_parallel = {
            k for k in self.parallel_levels if self.levels[k].block == 1
        }
        self._separable = all([d <= unblocked_parallel for d in deps])
        #: A partitioned level's congruence target is fixed per chunk when
        #: no outer partition level shifts it (off-diagonal HNF entries
        #: vanish modulo the stride); per partition position, and for the
        #: whole plan.
        self._fixed_target_at = [
            all(self.hnf[s][t] % self.hnf[t][t] == 0 for s in range(t))
            for t in range(len(self.partition_levels))
        ]
        self._fixed_targets = all(self._fixed_target_at)
        #: Closed-form chunk_count needs constant bounds on every key level.
        self._constant_key_bounds = not any([deps[k] for k in range(depth) if is_key[k]])
        self._key_list: Optional[List[ChunkKey]] = None
        self._size_list: Optional[List[int]] = None
        self._size_totals: Optional[np.ndarray] = None
        self._chunk_count: Optional[int] = None
        # Per-key (start, stop, step) ranges of separable chunks, for the
        # vectorized backend and the per-key chunk_size reference.
        self._ranges_cache: Dict[ChunkKey, Optional[List[Tuple[int, int, int]]]] = {}
        # The int64 tables, built on first use (the bound table stays None
        # when the overflow guard refuses the plan).
        self._bound_table_cache = _UNBUILT
        self._key_table_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # bound evaluation
    # ------------------------------------------------------------------ #
    def _range(self, level: int, prefix: Sequence[int]) -> Tuple[int, int]:
        bounds = self.levels[level].bounds
        lower = bounds.lower_value(prefix)
        upper = bounds.upper_value(prefix)
        if lower is None or upper is None:
            raise CodegenError(
                f"loop level {level} of the plan is unbounded; the original "
                "nest must have a finite iteration space"
            )
        return lower, upper

    def _label_of(self, iteration: Sequence[int]) -> Tuple[int, ...]:
        """Partition label: canonical residue modulo the HNF row lattice."""
        if not self.partition_levels:
            return ()
        residual = [int(iteration[k]) for k in self.partition_levels]
        m = len(residual)
        for s, row in enumerate(self.hnf):
            factor = residual[s] // row[s]
            if factor:
                for t in range(s, m):
                    residual[t] -= factor * row[t]
        return tuple(residual)

    def key_of(self, iteration: Sequence[int]) -> ChunkKey:
        """The chunk key of a new-space iteration (parallel values, label).

        A blocked parallel level contributes its block index
        ``value // block`` instead of the value, so adjacent values share a
        chunk.
        """
        parallel: List[int] = []
        for k in self.parallel_levels:
            block = self.levels[k].block
            value = int(iteration[k])
            parallel.append(value // block if block > 1 else value)
        return (tuple(parallel), self._label_of(iteration))

    def _key_row(self, key: ChunkKey) -> List[int]:
        """One key as ``depth`` ints: the parallel value (or block index)
        of a parallel level, the label component of a partitioned level,
        0 for a sequential level — the row layout of :meth:`key_table`."""
        parallel_values, label = key
        if len(parallel_values) != len(self.parallel_levels):
            raise CodegenError("chunk key has the wrong number of parallel values")
        if len(label) != len(self.partition_levels):
            raise CodegenError("chunk key has the wrong partition label length")
        row = [0] * self.depth
        for level, value in zip(self.parallel_levels, parallel_values):
            row[level] = int(value)
        for level, value in zip(self.partition_levels, label):
            row[level] = int(value)
        return row

    def key_rows(self, keys: Sequence[ChunkKey]) -> np.ndarray:
        """The ``(len(keys), depth)`` int64 key rows of the given keys."""
        rows = np.zeros((len(keys), self.depth), dtype=np.int64)
        if keys:
            if self.parallel_levels:
                rows[:, list(self.parallel_levels)] = [key[0] for key in keys]
            if self.partition_levels:
                rows[:, list(self.partition_levels)] = [key[1] for key in keys]
        return rows

    # ------------------------------------------------------------------ #
    # chunk discovery (keys in first-appearance order)
    # ------------------------------------------------------------------ #
    def _discover(self) -> Iterator[Tuple[ChunkKey, Tuple[int, ...]]]:
        """Yield ``(key, first iteration)`` in schedule (first-appearance) order.

        Visits only candidate chunk-starting iterations wherever the static
        invariance flags allow; degrades to a deduplicating sweep where the
        bounds couple key and non-key levels.
        """
        prefix: List[int] = []
        depth = self.depth

        def scan(level: int) -> Iterator[Tuple[ChunkKey, Tuple[int, ...]]]:
            if level == depth:
                iteration = tuple(prefix)
                yield self.key_of(iteration), iteration
                return
            spec = self.levels[level]
            lower, upper = self._range(level, prefix)
            if upper < lower:
                # Empty integer fiber (integrality gap): nothing below.
                return
            if spec.role == "parallel" and spec.block == 1:
                # Every value is a distinct key component: no dedupe, and
                # value order is first-appearance order.
                for value in range(lower, upper + 1):
                    prefix.append(value)
                    yield from scan(level + 1)
                    prefix.pop()
            elif self._invariant[level]:
                # The subtree's key set cannot change across representative
                # values: the first value of each block (blocked parallel),
                # the first period (partition) or the first value
                # (sequential) already starts every chunk.
                if spec.role == "parallel":
                    values: List[int] = []
                    value = lower
                    while value <= upper:
                        values.append(value)
                        value = (value // spec.block + 1) * spec.block
                elif spec.role == "partition":
                    values = list(range(lower, min(upper, lower + spec.stride - 1) + 1))
                else:
                    values = [lower]
                for value in values:
                    prefix.append(value)
                    yield from scan(level + 1)
                    prefix.pop()
            else:
                # Exact fallback: later values may start chunks the earlier
                # ones could not, so sweep and deduplicate by full key (the
                # outer prefix is fixed here, so full key == local suffix).
                seen: Set[ChunkKey] = set()
                for value in range(lower, upper + 1):
                    prefix.append(value)
                    for key, first in scan(level + 1):
                        if key not in seen:
                            seen.add(key)
                            yield key, first
                    prefix.pop()

        yield from scan(0)

    def _expanded_key_table(self) -> Optional[np.ndarray]:
        """The key table by level-by-level NumPy expansion of the bound table.

        An exact transcription of :meth:`_discover`: after level ``k`` the
        rows of ``values`` are the prefixes the scan visits, in its visiting
        order.  An unblocked parallel level repeats each prefix over its
        range; an invariant level takes its representatives (the first
        ``stride`` values, the block starts, or the lower bound); any other
        level sweeps its range, and the key rows are then deduplicated by
        first occurrence.  A global dedupe equals the scan's per-subtree
        one: two leaves with one key first differ at a swept level, since
        every other level's values give distinct key components (partition
        levels are in loop order, as the bound table's shifts assume).
        ``None`` when some level would hold more than
        :data:`_EXPANSION_ROW_LIMIT` rows.
        """
        table = self.bound_table()
        depth = self.depth
        header = len(LEVEL_FIELDS) + depth
        width = depth + 2
        values = np.zeros((1, 0), dtype=np.int64)
        dedupe = False
        for level, spec in enumerate(self.levels):
            n_lower, n_upper, offset = (
                int(x) for x in table[level * header + 2 : level * header + 5]
            )
            exprs = table[offset : offset + (n_lower + n_upper) * width].reshape(-1, width)
            numerators = values @ exprs[:, 2 : 2 + level].T + exprs[:, 1]
            denominators = exprs[:, 0]
            lower = (-(-numerators[:, :n_lower] // denominators[:n_lower])).max(axis=1)
            upper = (numerators[:, n_lower:] // denominators[n_lower:]).min(axis=1)
            unblocked = spec.role == "parallel" and spec.block == 1
            blocked = spec.role == "parallel" and spec.block > 1
            if unblocked or not self._invariant[level]:
                dedupe = dedupe or not unblocked
                counts = upper - lower + 1
            elif blocked:
                counts = upper // spec.block - lower // spec.block + 1
            elif spec.role == "partition":
                counts = np.minimum(upper - lower + 1, spec.stride)
            else:
                counts = np.ones_like(lower)
            counts[upper < lower] = 0  # an empty integer fiber ends its prefix
            # The max test first keeps the sum far from int64 overflow.
            if counts.size and (
                counts.max() > _EXPANSION_ROW_LIMIT or counts.sum() > _EXPANSION_ROW_LIMIT
            ):
                return None
            parents = np.repeat(np.arange(counts.size), counts)
            # Each new row's position among its prefix's values.
            rank = np.arange(parents.size) - np.repeat(np.cumsum(counts) - counts, counts)
            start = lower[parents]
            if blocked and self._invariant[level]:
                # The lower bound, then every later block start.
                column = np.where(rank == 0, start, (start // spec.block + rank) * spec.block)
            else:
                column = start + rank
            values = np.concatenate((values[parents], column[:, None]), axis=1)
        keys = np.zeros_like(values)
        for level in self.parallel_levels:
            keys[:, level] = values[:, level] // self.levels[level].block
        if self.partition_levels:
            # The partition label: the residue modulo the HNF row lattice,
            # reduced row by row as in _label_of.
            residual = values[:, list(self.partition_levels)]
            for s, row in enumerate(self.hnf):
                factor = residual[:, s] // row[s]
                residual[:, s:] -= factor[:, None] * np.asarray(row[s:], dtype=np.int64)
            keys[:, list(self.partition_levels)] = residual
        if dedupe and keys.shape[0] > 1:
            # A stable lexicographic sort puts each key's first occurrence
            # first among its equals.
            order = np.lexsort(keys.T[::-1])
            ordered = keys[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
            keys = keys[np.sort(order[first])]
        return np.ascontiguousarray(keys)

    def scan_stamps(self) -> Optional[int]:
        """How many int64 dedupe stamps the native chunk scan needs for the
        whole plan; ``None`` when the plan keeps the key-table path.

        The native chunk scan (``repro_scan``, see
        :func:`repro.codegen.native.scan_source`) transcribes
        :meth:`_discover` over the bound table and runs the chunks as it
        finds them, so a serial run of the whole plan builds no key table.
        Where the reference sweeps a level and deduplicates the keys found
        below it, the scan keeps one stamp per swept level and partition
        label, which is exact only when every key level below a swept level
        is partitioned.  A swept level
        above a parallel level (under ``placement="inner"``, a partition
        level above a doall level) would have to deduplicate parallel values
        too: that plan, a plan past :data:`_SCAN_STAMP_LIMIT` stamps or
        partition labels, and one without a bound table return ``None``.
        """
        if self._scan_stamps is None or self.bound_table() is None:
            return None
        return self._scan_stamps

    def record_chunk_count(self, count: int) -> None:
        """Keep the chunk count a native scan of the whole plan found."""
        if self._chunk_count is None:
            self._chunk_count = int(count)

    def chunk_keys(self) -> Iterator[ChunkKey]:
        """All chunk keys in first-appearance (schedule) order.

        Read from the key table; lazily from :meth:`_discover` for a plan
        the overflow guard refuses.
        """
        if self._key_list is None and self.bound_table() is None:
            for key, _ in self._discover():
                yield key
            return
        yield from self.key_list()

    def key_list(self) -> List[ChunkKey]:
        """The chunk keys as an indexable list (cached).

        Converted from :meth:`key_table`; a plan the overflow guard refuses
        finds them with :meth:`_discover`, the reference the table matches.
        """
        if self._key_list is None:
            table = self.key_table()
            if table is None:
                self._key_list = [key for key, _ in self._discover()]
            else:
                parallel = table[:, list(self.parallel_levels)].tolist()
                labels = table[:, list(self.partition_levels)].tolist()
                self._key_list = [
                    (tuple(values), tuple(label))
                    for values, label in zip(parallel, labels)
                ]
        return self._key_list

    def chunks(self) -> Iterator[ChunkView]:
        """Lazy chunk views in schedule order."""
        for key in self.chunk_keys():
            yield ChunkView(self, key)

    def select_chunks(self, indices: Optional[Sequence[int]] = None) -> List[ChunkView]:
        """Chunk views for the given schedule positions (all when None)."""
        keys = self.key_list()
        if indices is None:
            return [ChunkView(self, key) for key in keys]
        return [ChunkView(self, keys[int(i)]) for i in indices]

    # ------------------------------------------------------------------ #
    # per-chunk iteration
    # ------------------------------------------------------------------ #
    def _level_range(
        self, level: int, prefix: Sequence[int], factors: Sequence[int], row: Sequence[int]
    ) -> Tuple[int, int, int, int]:
        """``(start, stop, step, target)`` of one level of a chunk's scan.

        ``row`` is the chunk's key row and ``factors`` the HNF basis
        coefficients of the outer partition levels on the current prefix.
        A parallel level runs over its value (or its block's values), a
        partitioned level steps by the HNF diagonal from the first value
        congruent to its target, a sequential level runs its whole range.
        The native kernels step through the bound table the same way.
        """
        spec = self.levels[level]
        lower, upper = self._range(level, prefix)
        if spec.role == "parallel":
            base = row[level] * spec.block
            return max(lower, base), min(upper, base + spec.block - 1), 1, 0
        if spec.role == "partition":
            s = spec.partition_pos
            stride = spec.stride
            target = row[level] + sum(factors[t] * self.hnf[t][s] for t in range(s))
            return lower + ((target - lower) % stride), upper, stride, target
        return lower, upper, 1, 0

    def iterations_for(self, key: ChunkKey) -> Iterator[Tuple[int, ...]]:
        """One chunk's iterations, lazily, in transformed lexicographic order.

        Partitioned levels are scanned with stride ``d`` from the first
        value in the chunk's congruence class — the paper's generated
        ``doall`` loop form — so only the chunk's own points are visited.
        """
        row = self._key_row(key)
        prefix: List[int] = []
        factors: List[int] = []  # HNF basis coefficients of the outer partition levels
        depth = self.depth

        def scan(level: int) -> Iterator[Tuple[int, ...]]:
            if level == depth:
                yield tuple(prefix)
                return
            start, stop, step, target = self._level_range(level, prefix, factors, row)
            partitioned = self.levels[level].role == "partition"
            for value in range(start, stop + 1, step):
                prefix.append(value)
                if partitioned:
                    factors.append((value - target) // step)
                yield from scan(level + 1)
                if partitioned:
                    factors.pop()
                prefix.pop()

        return scan(0)

    def chunk_value_ranges(self, key: ChunkKey) -> Optional[List[Tuple[int, int, int]]]:
        """Per-level ``(start, stop_inclusive, step)`` when the chunk is a product."""
        if not (self._separable and self._fixed_targets):
            return None
        cached = self._ranges_cache.get(key)
        if cached is not None or key in self._ranges_cache:
            return cached
        ranges = self._compute_value_ranges(key)
        self._ranges_cache[key] = ranges
        return ranges

    def _compute_value_ranges(self, key: ChunkKey) -> Optional[List[Tuple[int, int, int]]]:
        parallel_values, label = key
        value_at = dict(zip(self.parallel_levels, parallel_values))
        # Bounds only reference unblocked parallel levels, whose values are
        # fixed within the chunk; other positions of the prefix are never
        # read (blocked levels store their block start, for safety).  A
        # level's bounds have one coefficient per outer level, so passing
        # the whole prefix reads exactly the outer values.
        prefix = [
            value_at.get(level, 0) * self.levels[level].block
            for level in range(self.depth)
        ]
        ranges: List[Tuple[int, int, int]] = []
        for level in range(self.depth):
            spec = self.levels[level]
            lower, upper = self._range(level, prefix)
            if spec.role == "parallel":
                if spec.block == 1:
                    value = value_at[level]
                    if not lower <= value <= upper:
                        return []
                    ranges.append((value, value, 1))
                else:
                    base = value_at[level] * spec.block
                    start = max(lower, base)
                    stop = min(upper, base + spec.block - 1)
                    if start > stop:
                        return []
                    ranges.append((start, stop, 1))
            elif spec.role == "partition":
                s = spec.partition_pos
                stride = spec.stride
                # Fixed targets: off-diagonal shifts vanish mod the stride,
                # so the congruence class is the label component itself.
                start = lower + ((label[s] - lower) % stride)
                if start > upper:
                    return []
                ranges.append((start, upper, stride))
            else:
                if lower > upper:
                    return []
                ranges.append((lower, upper, 1))
        return ranges

    # ------------------------------------------------------------------ #
    # closed-form statistics
    # ------------------------------------------------------------------ #
    def chunk_size(self, key: ChunkKey) -> int:
        """Number of iterations of one chunk.

        Separable chunks with fixed targets multiply their per-level range
        lengths.  Every other chunk is scanned like :meth:`iterations_for`
        over all levels but the innermost, whose strided range is counted
        in closed form — the loop structure the native kernel runs.
        """
        if self._separable and self._fixed_targets:
            ranges = self.chunk_value_ranges(key)
            if not ranges:
                return 0
            size = 1
            for start, stop, step in ranges:
                size *= (stop - start) // step + 1
            return size
        return self._scanned_chunk_size(key)

    def _scanned_chunk_size(self, key: ChunkKey) -> int:
        row = self._key_row(key)
        prefix: List[int] = []
        factors: List[int] = []
        innermost = self.depth - 1

        def count(level: int) -> int:
            start, stop, step, target = self._level_range(level, prefix, factors, row)
            if level == innermost:
                return max(0, (stop - start) // step + 1)
            partitioned = self.levels[level].role == "partition"
            total = 0
            for value in range(start, stop + 1, step):
                prefix.append(value)
                if partitioned:
                    factors.append((value - target) // step)
                total += count(level + 1)
                if partitioned:
                    factors.pop()
                prefix.pop()
            return total

        return count(0) if self.depth else 1

    def chunk_sizes(self) -> List[int]:
        """Sizes of all chunks in schedule order (cached).

        Separable plans with fixed targets evaluate the bound table over the
        key table's columns with NumPy, one vector operation per level; the
        others (and plans the overflow guard refuses) size chunk by chunk.
        """
        if self._size_list is None:
            sizes = None
            if self._separable and self._fixed_targets:
                sizes = self._table_chunk_sizes()
            if sizes is None:
                sizes = [self.chunk_size(key) for key in self.key_list()]
            self._size_list = sizes
        return self._size_list

    def chunk_size_totals(self) -> np.ndarray:
        """Running total of :meth:`chunk_sizes` as int64 (cached), on which
        the parallel driver cuts its thread ranges."""
        if self._size_totals is None:
            self._size_totals = np.cumsum(self.chunk_sizes(), dtype=np.int64)
        return self._size_totals

    def _table_chunk_sizes(self) -> Optional[List[int]]:
        table = self.bound_table()
        if table is None:
            return None
        keys = self.key_table()
        depth = self.depth
        header = len(LEVEL_FIELDS) + depth
        width = depth + 2
        sizes = np.ones(keys.shape[0], dtype=np.int64)
        for level in range(depth):
            role, step, n_lower, n_upper, offset = (
                int(x) for x in table[level * header : level * header + 5]
            )
            exprs = table[offset : offset + (n_lower + n_upper) * width].reshape(-1, width)
            # Separable bounds read only unblocked parallel levels, whose key
            # column is the level's value; every other numerator is 0.
            numerators = keys @ exprs[:, 2:].T + exprs[:, 1]
            denominators = exprs[:, 0]
            lower = (-(-numerators[:, :n_lower] // denominators[:n_lower])).max(axis=1)
            upper = (numerators[:, n_lower:] // denominators[n_lower:]).min(axis=1)
            column = keys[:, level]
            if role == ROLE_CODES["parallel"]:
                base = column * step
                count = np.minimum(upper, base + step - 1) - np.maximum(lower, base) + 1
            elif role == ROLE_CODES["partition"]:
                # Fixed targets: the congruence class is the label itself.
                start = lower + (column - lower) % step
                count = (upper - start) // step + 1
            else:
                count = upper - lower + 1
            sizes *= np.maximum(count, 0)
        return sizes.tolist()

    # ------------------------------------------------------------------ #
    # int64 tables: what the native kernels and the NumPy sizing read
    # ------------------------------------------------------------------ #
    def bound_table(self) -> Optional[np.ndarray]:
        """The plan's levels and bounds as one flat int64 array (cached).

        Level ``k``'s header sits at ``k * (len(LEVEL_FIELDS) + depth)``:
        its role code (:data:`ROLE_CODES`), its step (the block of a
        parallel level, the HNF diagonal of a partitioned one, 1 for a
        sequential one), its lower and upper expression counts, the offset
        of its expressions, its invariance flag (1 when the discovery scan
        may stop at the level's representatives), then ``depth`` shift
        entries — ``shift[u]`` is
        ``hnf[pos(u)][pos(k)]`` when levels ``u < k`` and ``k`` are both
        partitioned, else 0, so a partitioned level's congruence target is
        ``row[k] + sum(shift[u] * factor[u])``.  Each expression is
        ``depth + 2`` ints, the integer form of its
        :class:`~repro.intlin.fourier_motzkin.BoundExpression`:
        ``denominator, numerator_constant, numerators...`` (zero-padded);
        the lower bounds come first, the upper bounds right after them.

        ``None`` when some intermediate value of the kernels or the NumPy
        sizing could reach ``2**62`` (or a level is unbounded); callers
        then take the Python paths.  The kernel's chunk scan computes
        nothing larger: its representatives and block starts stay within
        two steps of a level's values, its label residues and HNF factors
        within the partition targets and factors bounded here, and its
        stamp index below :meth:`scan_stamps`.
        """
        if self._bound_table_cache is _UNBUILT:
            self._bound_table_cache = self._build_bound_table()
        return self._bound_table_cache

    def key_table(self) -> Optional[np.ndarray]:
        """Every chunk's key row, in schedule order: a C-contiguous
        ``(chunk_count, depth)`` int64 array (cached).  ``None`` exactly
        when :meth:`bound_table` is ``None``.

        Built by expanding the plan level by level in NumPy from its bound
        table (:meth:`_expanded_key_table`), with no per-chunk Python.  An
        expansion past :data:`_EXPANSION_ROW_LIMIT` rows takes the keys
        from :meth:`_discover` instead; both give the same table.
        """
        if self._key_table_cache is None and self.bound_table() is not None:
            table = self._expanded_key_table()
            if table is None:
                self._key_list = [key for key, _ in self._discover()]
                table = self.key_rows(self._key_list)
            self._key_table_cache = table
        return self._key_table_cache

    def _build_bound_table(self) -> Optional[np.ndarray]:
        depth = self.depth
        header = len(LEVEL_FIELDS) + depth
        table: List[int] = [0] * (depth * header)
        # Conservative value intervals of every level (interval arithmetic
        # over the outer intervals), and of every partition target and HNF
        # factor, bound all the magnitudes the tables' readers compute.
        low: List[int] = []
        high: List[int] = []
        factor_bound: List[int] = []
        peak = self.total_iterations
        for level, spec in enumerate(self.levels):
            bounds = spec.bounds
            if not bounds.lowers or not bounds.uppers:
                return None
            magnitude = [max(abs(a), abs(b)) for a, b in zip(low, high)]
            accumulated = 0
            lowest: Optional[int] = None
            highest: Optional[int] = None
            start = len(table)
            for is_upper, exprs in ((False, bounds.lowers), (True, bounds.uppers)):
                for expr in exprs:
                    numerators, constant = expr.numerators, expr.numerator_constant
                    denominator = expr.denominator
                    table += (denominator, constant, *numerators)
                    table += [0] * (depth - len(numerators))
                    least = most = constant
                    reach = abs(constant)
                    for coeff, lo, hi, m in zip(numerators, low, high, magnitude):
                        if coeff:
                            lo, hi = coeff * lo, coeff * hi
                            least += min(lo, hi)
                            most += max(lo, hi)
                            reach += abs(coeff) * m
                    accumulated = max(accumulated, reach, denominator, *map(abs, numerators))
                    if is_upper:
                        value = most // denominator
                        highest = value if highest is None else min(highest, value)
                    else:
                        value = -(-least // denominator)
                        lowest = value if lowest is None else max(lowest, value)
            low.append(lowest)
            high.append(highest)
            step = spec.block if spec.role == "parallel" else spec.stride
            shifts = [0] * depth
            target = 0
            if spec.role == "partition":
                s = spec.partition_pos
                for t in range(s):
                    shifts[self.partition_levels[t]] = self.hnf[t][s]
                target = step + sum(
                    abs(shift) * bound for shift, bound in zip(shifts, factor_bound)
                )
            value_bound = max(abs(lowest), abs(highest))
            factor_bound.append(value_bound + target)
            table[level * header : (level + 1) * header] = [
                ROLE_CODES[spec.role],
                step,
                len(bounds.lowers),
                len(bounds.uppers),
                start,
                int(self._invariant[level]),
                *shifts,
            ]
            peak = max(
                peak,
                accumulated + target + value_bound + 2 * step,
                *(abs(shift) for shift in shifts),
            )
        if peak >= _INT64_LIMIT:
            return None
        return np.asarray(table, dtype=np.int64)

    @property
    def chunk_count(self) -> int:
        """Number of chunks; closed form for constant key-level bounds,
        else the count a native scan recorded, else the key table's row
        count (the cached table serves later key_list()/chunk_sizes() calls
        too)."""
        if self._chunk_count is None:
            self._chunk_count = self._closed_chunk_count()
            if self._chunk_count is None:
                keys = self.key_table()
                self._chunk_count = (
                    len(self.key_list()) if keys is None else int(keys.shape[0])
                )
        return self._chunk_count

    def _closed_chunk_count(self) -> Optional[int]:
        if not self._constant_key_bounds:
            return None
        # Every key combination must own at least one iteration.  Constant
        # key-level bounds plus exact (integral) sequential bounds make the
        # Fourier–Motzkin nonemptiness guarantee carry over to the integer
        # points; an integrality gap at a sequential level could silently
        # empty some chunks, which only the scan can detect.
        if not all(
            self._exact[level]
            for level in range(self.depth)
            if self.levels[level].role == "sequential"
        ):
            return None
        count = 1
        for level in range(self.depth):
            spec = self.levels[level]
            if spec.role == "sequential":
                continue
            lower, upper = self._range(level, [0] * level)
            extent = upper - lower + 1
            if extent <= 0:
                return 0
            if spec.role == "parallel":
                # With block B, chunks are the distinct blocks the range
                # touches (block 1 reduces to the plain extent).
                count *= upper // spec.block - lower // spec.block + 1
            else:
                stride = spec.stride
                if extent < stride and not self._fixed_target_at[spec.partition_pos]:
                    # Shifting congruence targets make the reachable label
                    # set depend on the outer partition values; only the
                    # scan knows how many full keys exist.
                    return None
                count *= min(extent, stride)
        return count

    def statistics(self) -> Dict[str, float]:
        """The numbers ``schedule_statistics`` reported, without tuples.

        ``ideal_speedup`` is total work over the largest chunk — the
        machine-independent parallelism the benchmarks quote.
        """
        sizes = self.chunk_sizes() or [0]
        total = sum(sizes)
        largest = max(sizes)
        count = len(self.chunk_sizes())
        return {
            "num_chunks": count,
            "total_iterations": total,
            "max_chunk_size": largest,
            "min_chunk_size": min(sizes),
            "mean_chunk_size": total / count if count else 0.0,
            # A zero-iteration plan has no work to parallelize: report 0.0,
            # not the 1.0 ("no parallelism") a largest-chunk division of
            # zero used to suggest.
            "ideal_speedup": (total / largest) if largest else 0.0,
        }

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        roles = ", ".join(
            f"j{k + 1}:{self.levels[k].role}" for k in range(self.depth)
        )
        return (
            f"ExecutionPlan(depth={self.depth}, levels=[{roles}], "
            f"iterations={self.total_iterations})"
        )

    def __repr__(self) -> str:
        return self.describe()
