"""Array storage for loop execution.

Loop nests in the paper freely index arrays with affine expressions that can
be negative or exceed the iteration bounds (e.g. ``A(2*i1 + i2 + 3)``).  The
:class:`OffsetArray` wraps a NumPy array with an integer origin per
dimension so any subscript inside a declared window is valid; the
:class:`ArrayStore` is a named collection of such arrays, with deep copy and
comparison helpers used by the verification machinery.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ExecutionError
from repro.loopnest.nest import LoopNest

__all__ = ["OffsetArray", "ArrayStore", "store_for_nest"]


class OffsetArray:
    """A dense array whose first valid index per dimension is ``origin[k]``.

    Indexing uses plain integer tuples: ``a[i, j]`` with
    ``origin[k] <= index[k] <= origin[k] + shape[k] - 1``.
    """

    def __init__(self, origin: Sequence[int], shape: Sequence[int], dtype=np.float64, fill=0.0):
        self.origin = tuple(int(o) for o in origin)
        if len(self.origin) != len(shape):
            raise ExecutionError("origin and shape must have the same length")
        self.data = np.full(tuple(int(s) for s in shape), fill, dtype=dtype)

    @classmethod
    def from_window(cls, lows: Sequence[int], highs: Sequence[int], dtype=np.float64, fill=0.0):
        """Create an array covering the inclusive index window ``[lows, highs]``."""
        return cls(lows, _window_shape(lows, highs), dtype=dtype, fill=fill)

    @classmethod
    def wrap(cls, origin: Sequence[int], data: np.ndarray) -> "OffsetArray":
        """Wrap an existing ndarray without copying it.

        The array adopts ``data`` as its backing storage, so writes through
        the :class:`OffsetArray` are visible to every other holder of the
        buffer — this is how the shared-memory store
        (:mod:`repro.runtime.shared`) exposes one segment to many processes.
        """
        wrapped = cls.__new__(cls)
        wrapped.origin = tuple(int(o) for o in origin)
        if len(wrapped.origin) != data.ndim:
            raise ExecutionError("origin and data must have the same dimensionality")
        wrapped.data = data
        return wrapped

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def _map(self, index) -> Tuple[int, ...]:
        if not isinstance(index, tuple):
            index = (index,)
        if len(index) != self.data.ndim:
            raise ExecutionError(
                f"index {index} has {len(index)} components, array has {self.data.ndim} dimensions"
            )
        mapped = []
        for k, (value, origin, extent) in enumerate(zip(index, self.origin, self.data.shape)):
            offset = int(value) - origin
            if not 0 <= offset < extent:
                raise ExecutionError(
                    f"index {index} out of the declared window in dimension {k} "
                    f"(origin {origin}, extent {extent})"
                )
            mapped.append(offset)
        return tuple(mapped)

    def __getitem__(self, index):
        return self.data[self._map(index)]

    def __setitem__(self, index, value):
        self.data[self._map(index)] = value

    def copy(self) -> "OffsetArray":
        return OffsetArray.wrap(self.origin, self.data.copy())

    def allclose(self, other: "OffsetArray", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        return (
            self.origin == other.origin
            and self.data.shape == other.data.shape
            and np.allclose(self.data, other.data, rtol=rtol, atol=atol)
        )

    def max_abs_difference(self, other: "OffsetArray") -> float:
        if self.data.shape != other.data.shape:
            return float("inf")
        return float(np.max(np.abs(self.data - other.data))) if self.data.size else 0.0

    def identical(self, other: "OffsetArray") -> bool:
        """Bit-exact equality: same origin, shape and every element equal.

        NaN cells count as equal (``equal_nan``) — a body that legitimately
        produces NaN must not make two matching results compare unequal.
        """
        return (
            self.origin == other.origin
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data, equal_nan=True))
        )

    def __repr__(self) -> str:
        return f"OffsetArray(origin={self.origin}, shape={self.data.shape}, dtype={self.data.dtype})"


class ArrayStore(dict):
    """A named collection of :class:`OffsetArray` objects."""

    def copy(self) -> "ArrayStore":
        clone = ArrayStore()
        for name, array in self.items():
            clone[name] = array.copy()
        return clone

    def allclose(self, other: "ArrayStore", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        if set(self.keys()) != set(other.keys()):
            return False
        return all(self[name].allclose(other[name], rtol, atol) for name in self)

    def max_abs_difference(self, other: "ArrayStore") -> float:
        if set(self.keys()) != set(other.keys()):
            return float("inf")
        diffs = [self[name].max_abs_difference(other[name]) for name in self]
        return max(diffs) if diffs else 0.0

    def identical(self, other: "ArrayStore") -> bool:
        """Bit-exact equality of every array (the differential-test contract)."""
        if set(self.keys()) != set(other.keys()):
            return False
        return all(self[name].identical(other[name]) for name in self)


def _window_shape(lows: Sequence[int], highs: Sequence[int]) -> Tuple[int, ...]:
    """The shape of the inclusive index window ``[lows, highs]``."""
    lows = [int(v) for v in lows]
    highs = [int(v) for v in highs]
    shape = tuple(hi - lo + 1 for lo, hi in zip(lows, highs))
    if any(s <= 0 for s in shape):
        raise ExecutionError(f"empty array window: lows={lows}, highs={highs}")
    return shape


def _widen(windows: Dict[str, Tuple[list, list]], array: str, lows: list, highs: list) -> None:
    """Grow ``array``'s window to cover ``[lows, highs]`` (first sight inserts it)."""
    entry = windows.get(array)
    if entry is None:
        windows[array] = (lows, highs)
        return
    known_lows, known_highs = entry
    for k in range(len(lows)):
        known_lows[k] = min(known_lows[k], lows[k])
        known_highs[k] = max(known_highs[k], highs[k])


def _closed_form_windows(nest: LoopNest) -> Dict[str, Tuple[list, list]]:
    """Exact subscript windows of a rectangular nest, without enumeration.

    Every subscript is affine in the loop indices, and over a box each
    affine form attains its extrema at a corner picked coordinate-wise by
    the sign of the coefficient — so the window of every array reference is
    closed form in the (constant) bounds.  This is what makes store
    creation O(references) instead of O(iterations): the serving path
    builds a store per job, and enumerating a large iteration space in
    Python would dwarf the execution it feeds.
    """
    index_lows: Dict[str, int] = {}
    index_highs: Dict[str, int] = {}
    for name, bound in zip(nest.index_names, nest.bounds):
        low = int(bound.lower.constant)
        high = int(bound.upper.constant)
        if high < low:
            # Empty iteration space: no iteration performs any access, so
            # the store has no arrays — same as the enumeration path.
            return {}
        index_lows[name] = low
        index_highs[name] = high
    windows: Dict[str, Tuple[list, list]] = {}
    for ref in nest.references():
        lows = []
        highs = []
        for subscript in ref.subscripts:
            low = high = int(subscript.constant)
            for variable, coefficient in subscript.terms:
                if coefficient >= 0:
                    low += coefficient * index_lows[variable]
                    high += coefficient * index_highs[variable]
                else:
                    low += coefficient * index_highs[variable]
                    high += coefficient * index_lows[variable]
            lows.append(low)
            highs.append(high)
        _widen(windows, ref.array, lows, highs)
    return windows


def _scanned_windows(nest: LoopNest) -> Dict[str, Tuple[list, list]]:
    """Exact subscript windows of a non-rectangular nest, scanning prefixes.

    Scans every level but the innermost, the way the plan's
    ``_scanned_chunk_size`` counts: for one outer prefix each affine
    subscript is monotone in the innermost index, so its extremes over the
    innermost range sit at the range's two ends.  The windows (and their
    insertion order) equal those of enumerating every iteration, at a cost
    of O(outer prefixes) instead of O(iterations).
    """
    names = nest.index_names
    innermost = nest.depth - 1
    bounds = [
        (bound.lower.vectorize(names), bound.upper.vectorize(names))
        for bound in nest.bounds
    ]
    accesses = [(ref.array, ref.access_matrix(names)) for ref in nest.references()]
    windows: Dict[str, Tuple[list, list]] = {}
    prefix: List[int] = []

    def at(coefficients: Sequence[int], constant: int) -> int:
        # Bounds and subscripts read the outer prefix only (zip truncates).
        return constant + sum(c * v for c, v in zip(coefficients, prefix))

    def scan(level: int) -> None:
        lower, upper = (at(*form) for form in bounds[level])
        if upper < lower:
            return
        if level < innermost:
            for value in range(lower, upper + 1):
                prefix.append(value)
                scan(level + 1)
                prefix.pop()
            return
        for array, (rows, offsets) in accesses:
            lows = []
            highs = []
            for row, offset in zip(rows, offsets):
                base = at(row, offset)
                first = base + row[innermost] * lower
                last = base + row[innermost] * upper
                lows.append(min(first, last))
                highs.append(max(first, last))
            _widen(windows, array, lows, highs)

    scan(0)
    return windows


def _index_sum(lows: Sequence[int], shape: Sequence[int], dtype) -> np.ndarray:
    """Cells holding the sum of their indices.

    Bit-identical to summing an int64 ``meshgrid`` of the index ranges and
    casting to ``dtype``, without the grids and without any addition: the
    window only holds the values ``sum(lows)`` to ``sum(highs)``, so one
    ``arange`` of them, viewed with a stride of one element on every axis,
    reads element ``i0 + ... + ik`` at cell ``(i0, ..., ik)``, and one
    C-order copy of that view is the array.  A floating ``dtype`` counts
    in the dtype itself, which is exact while every value stays inside its
    exact-integer range (``2**53`` for float64); any other window counts
    in int64 and casts once.
    """
    dtype = np.dtype(dtype)
    reach = sum(max(abs(lo), abs(lo + n - 1)) for lo, n in zip(lows, shape))
    exact = dtype.kind == "f" and reach <= 2 ** (np.finfo(dtype).nmant + 1)
    work = dtype if exact else np.dtype(np.int64)
    start = sum(lows)
    diagonal = np.arange(start, start + sum(shape) - len(shape) + 1, dtype=work)
    # The view aliases ``diagonal``: every cell must be copied out of it.
    view = np.ndarray(shape, work, buffer=diagonal, strides=(work.itemsize,) * len(shape))
    return view.copy() if exact else view.astype(dtype, order="C")


def store_for_nest(
    nest: LoopNest,
    margin: int = 4,
    dtype=np.float64,
    initializer: Optional[str] = "index_sum",
    seed: int = 0,
) -> ArrayStore:
    """Create an array store large enough for every access of the nest.

    The subscript window of every array is determined from the iteration
    space bounds without enumerating iterations — in closed form for
    rectangular nests (O(references)), by scanning every level but the
    innermost otherwise — and extended by ``margin`` cells on each side.

    ``initializer`` selects the initial contents:

    * ``"zeros"`` — all zeros,
    * ``"index_sum"`` — cell value = sum of its indices (deterministic and
      position dependent, good for catching reordering bugs), copied out of
      one range of the window's index sums viewed with unit strides,
    * ``"random"`` — reproducible uniform noise from ``seed``.

    Any other ``initializer`` raises :class:`ExecutionError` before an array
    is built, so a nest without iterations (and without arrays) refuses it
    too.
    """
    if initializer not in ("index_sum", "random", "zeros", None):
        raise ExecutionError(f"unknown initializer {initializer!r}")
    if nest.is_rectangular:
        windows = _closed_form_windows(nest)
    else:
        windows = _scanned_windows(nest)
    rng = np.random.default_rng(seed) if initializer == "random" else None
    store = ArrayStore()
    for array, (lows, highs) in windows.items():
        lows = [lo - margin for lo in lows]
        highs = [hi + margin for hi in highs]
        shape = _window_shape(lows, highs)
        if initializer == "index_sum":
            data = _index_sum(lows, shape, dtype)
        elif initializer == "random":
            data = np.empty(shape, dtype=dtype)
            data[...] = rng.uniform(-1.0, 1.0, size=shape)
        else:
            data = np.zeros(shape, dtype=dtype)
        store[array] = OffsetArray.wrap(lows, data)
    return store
