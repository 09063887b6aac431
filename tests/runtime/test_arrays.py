"""Tests for the runtime array store."""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import parse_loop_file
from repro.exceptions import ExecutionError
from repro.loopnest.builder import loop_nest
from repro.runtime.arrays import (
    ArrayStore,
    OffsetArray,
    _closed_form_windows,
    _index_sum,
    _scanned_windows,
    _window_shape,
    store_for_nest,
)
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite
from repro.workloads.synthetic import no_dependence_loop, variable_distance_loop

EXAMPLE_LOOPS = Path(__file__).resolve().parents[2] / "examples" / "loops"


def enumerated_windows(nest):
    """Reference window computation: walk every iteration (the slow path)."""
    windows = {}
    for iteration in nest.iterations():
        env = nest.env_for(iteration)
        for ref in nest.references():
            values = ref.subscript_values(env)
            lows, highs = windows.setdefault(
                ref.array, ([int(v) for v in values], [int(v) for v in values])
            )
            for k, value in enumerate(values):
                lows[k] = min(lows[k], int(value))
                highs[k] = max(highs[k], int(value))
    return windows


def meshgrid_index_sum(lows, highs, dtype=np.float64):
    """The ``index_sum`` reference: an int64 ``meshgrid`` sum, cast once."""
    grids = np.meshgrid(
        *[np.arange(lo, hi + 1) for lo, hi in zip(lows, highs)], indexing="ij"
    )
    return sum(grids).astype(dtype)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_box_nest(rng: np.random.Generator):
    """A rectangular 1- to 4-deep nest over negative and positive indices."""
    depth = int(rng.integers(1, 5))
    names = [f"i{k + 1}" for k in range(depth)]
    builder = loop_nest(f"box-{depth}")
    for name in names:
        low = int(rng.integers(-30, 10))
        builder = builder.loop(name, low, low + int(rng.integers(0, 6)))
    target = ", ".join(names)
    source = ", ".join(f"{name} - {int(rng.integers(-2, 3))}" for name in names)
    return builder.statement(f"A[{target}] = B[{source}] + 1.0").build()


class TestOffsetArray:
    def test_window_indexing(self):
        array = OffsetArray.from_window([-3, 0], [3, 4])
        array[-3, 0] = 7.0
        array[3, 4] = 9.0
        assert array[-3, 0] == 7.0
        assert array[3, 4] == 9.0
        assert array.shape == (7, 5)

    def test_one_dimensional(self):
        array = OffsetArray.from_window([-5], [5])
        array[-5] = 1.0
        assert array[-5] == 1.0

    def test_out_of_window_raises(self):
        array = OffsetArray.from_window([0, 0], [2, 2])
        with pytest.raises(ExecutionError):
            array[3, 0]
        with pytest.raises(ExecutionError):
            array[0, -1] = 1.0

    def test_wrong_arity_raises(self):
        array = OffsetArray.from_window([0, 0], [2, 2])
        with pytest.raises(ExecutionError):
            array[0]

    def test_empty_window_rejected(self):
        with pytest.raises(ExecutionError):
            OffsetArray.from_window([0], [-1])

    def test_origin_shape_mismatch(self):
        with pytest.raises(ExecutionError):
            OffsetArray([0, 0], [3])

    def test_copy_independent(self):
        array = OffsetArray.from_window([0], [3])
        clone = array.copy()
        clone[0] = 5.0
        assert array[0] == 0.0
        assert clone[0] == 5.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_copy_keeps_origin_dtype_and_values(self, dtype):
        array = OffsetArray.wrap(
            (-3, 2), np.arange(20, dtype=dtype).reshape(4, 5) * dtype(0.5)
        )
        clone = array.copy()
        assert clone.origin == array.origin
        assert clone.data.dtype == np.dtype(dtype)
        assert clone.data.flags["C_CONTIGUOUS"]
        assert_same_bits(clone.data, array.data)
        assert clone.data is not array.data
        # Writes to either side leave the other unchanged.
        clone[-3, 2] = 99.0
        array[0, 6] = -7.0
        assert array[-3, 2] == 0.0 and clone[0, 6] == 9.5
        assert (clone[-3, 2], array[0, 6]) == (99.0, -7.0)

    def test_allclose_and_difference(self):
        a = OffsetArray.from_window([0], [3])
        b = a.copy()
        assert a.allclose(b)
        b[2] = 1e-3
        assert not a.allclose(b)
        assert a.max_abs_difference(b) == pytest.approx(1e-3)


class TestArrayStore:
    def test_copy_and_compare(self):
        store = ArrayStore()
        store["A"] = OffsetArray.from_window([0, 0], [3, 3])
        clone = store.copy()
        clone["A"][1, 1] = 2.0
        assert not store.allclose(clone)
        assert store.max_abs_difference(clone) == pytest.approx(2.0)

    def test_mismatched_keys(self):
        a = ArrayStore()
        b = ArrayStore()
        a["A"] = OffsetArray.from_window([0], [1])
        assert not a.allclose(b)
        assert a.max_abs_difference(b) == float("inf")


class TestStoreForNest:
    def test_window_covers_all_accesses(self, ex41_small):
        store = store_for_nest(ex41_small)
        # executing must never raise an out-of-window error
        from repro.runtime.interpreter import execute_nest

        execute_nest(ex41_small, store)

    def test_initializers(self):
        nest = no_dependence_loop(3)
        zeros = store_for_nest(nest, initializer="zeros")
        assert float(np.sum(np.abs(zeros["B"].data))) == 0.0
        index_sum = store_for_nest(nest, initializer="index_sum")
        assert index_sum["B"][2, 3] == pytest.approx(5.0)
        random_a = store_for_nest(nest, initializer="random", seed=1)
        random_b = store_for_nest(nest, initializer="random", seed=1)
        assert random_a.allclose(random_b)

    def test_unknown_initializer(self):
        with pytest.raises(ExecutionError):
            store_for_nest(no_dependence_loop(2), initializer="bogus")

    def test_empty_window_raises_the_same_error(self):
        # A negative margin can shrink a window to nothing.
        nest = loop_nest("point").loop("i1", 3, 3).statement("A[i1] = 1.0").build()
        for initializer in ("index_sum", "zeros", "random"):
            with pytest.raises(
                ExecutionError, match=r"^empty array window: lows=\[4\], highs=\[2\]$"
            ):
                store_for_nest(nest, margin=-1, initializer=initializer)


class TestStoreInit:
    """``index_sum`` is one C-order copy of the window's range of index sums
    viewed with unit strides; every initializer keeps the contents of the
    int64 ``meshgrid`` and zero-fill reference."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_index_sum_matches_meshgrid(self, seed, dtype):
        rng = np.random.default_rng(seed)
        for _ in range(8):
            nest = random_box_nest(rng)
            store = store_for_nest(nest, dtype=dtype)
            for array in store.values():
                highs = [lo + n - 1 for lo, n in zip(array.origin, array.shape)]
                assert_same_bits(array.data, meshgrid_index_sum(array.origin, highs, dtype))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_windows_match_meshgrid(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(25):
            ndim = int(rng.integers(1, 5))
            lows = [int(rng.integers(-60, 20)) for _ in range(ndim)]
            highs = [lo + int(rng.integers(0, 7)) for lo in lows]
            for dtype in (np.float64, np.float32):
                data = _index_sum(lows, _window_shape(lows, highs), dtype)
                assert_same_bits(data, meshgrid_index_sum(lows, highs, dtype))

    @pytest.mark.parametrize(
        "lows, highs, dtype",
        [
            ([2**53 + 1], [2**53 + 12], np.float64),
            ([2**53 - 6, 2**52, 2**52 - 3], [2**53 + 3, 2**52 + 4, 2**52 + 2], np.float64),
            ([-(2**53) - 5, 7, -(2**52)], [-(2**53) + 4, 12, -(2**52) + 5], np.float64),
            ([2**24 + 1], [2**24 + 9], np.float32),
            ([2**23, 2**23 - 4, 2**22], [2**23 + 5, 2**23 + 3, 2**22 + 6], np.float32),
        ],
    )
    def test_windows_past_the_exact_range(self, lows, highs, dtype):
        # Float partial sums would round here; the int64 path keeps the
        # reference bits.
        data = _index_sum(lows, _window_shape(lows, highs), dtype)
        assert_same_bits(data, meshgrid_index_sum(lows, highs, dtype))

    def test_store_past_the_exact_range(self):
        nest = (
            loop_nest("far")
            .loop("i1", 2**53 + 5, 2**53 + 9)
            .loop("i2", 2**52, 2**52 + 3)
            .loop("i3", 2**52, 2**52 + 2)
            .statement("A[i1, i2, i3] = A[i1 - 1, i2, i3] + 1.0")
            .build()
        )
        array = store_for_nest(nest)["A"]
        highs = [lo + n - 1 for lo, n in zip(array.origin, array.shape)]
        assert_same_bits(array.data, meshgrid_index_sum(array.origin, highs))

    @pytest.mark.parametrize("ndim", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "dtype, low",
        [
            (np.float64, -7),
            (np.float32, -7),
            # Past the exact range (and not floating): counts in int64.
            (np.float64, 2**53),
            (np.float32, 2**24),
            (np.int64, -7),
        ],
        ids=["float64", "float32", "float64-int64-path", "float32-int64-path", "int64"],
    )
    def test_fill_is_a_fresh_array(self, ndim, dtype, low):
        lows = [low + k for k in range(ndim)]
        shape = (3, 4, 2, 5)[:ndim]
        highs = [lo + n - 1 for lo, n in zip(lows, shape)]
        data = _index_sum(lows, shape, dtype)
        expected = meshgrid_index_sum(lows, highs, dtype)
        assert_same_bits(data, expected)
        assert data.base is None and data.flags.owndata
        assert data.flags.c_contiguous and data.flags.writeable
        # In the strided view, cells with equal index sums share one
        # element; in the array, writing one cell changes that cell only.
        cell = (0,) * (ndim - 1) + (1,)
        data[cell] = expected[cell] = -expected[cell] - 1
        assert_same_bits(data, expected)

    def test_rng_built_only_for_random(self, monkeypatch):
        seeds = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: seeds.append(seed) or default_rng(seed)
        )
        nest = example_4_2(6)
        for initializer in ("index_sum", "zeros", None):
            store_for_nest(nest, initializer=initializer)
        assert seeds == []
        store_for_nest(nest, initializer="random", seed=5)
        assert seeds == [5]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zeros_and_random_unchanged(self, dtype):
        for case in workload_suite(7):
            zeros = store_for_nest(case.nest, initializer="zeros", dtype=dtype)
            for array in zeros.values():
                assert_same_bits(array.data, np.zeros(array.shape, dtype=dtype))
            noise = store_for_nest(case.nest, initializer="random", seed=3, dtype=dtype)
            rng = np.random.default_rng(3)
            for array in noise.values():
                expected = np.full(array.shape, 0.0, dtype=dtype)
                expected[...] = rng.uniform(-1.0, 1.0, size=array.shape)
                assert_same_bits(array.data, expected)

    def test_arrays_present(self, ex41_small):
        store = store_for_nest(ex41_small)
        assert set(store.keys()) == {"A"}


class TestClosedFormWindows:
    """Rectangular nests compute windows in closed form, never enumerating."""

    @pytest.mark.parametrize(
        "make_nest",
        [
            lambda: example_4_1(9),
            lambda: example_4_2(7),
            lambda: variable_distance_loop(8),
            lambda: no_dependence_loop(6),
            # Negative coefficients flip which corner attains each extremum.
            lambda: (
                loop_nest("mirror")
                .loop("i1", 2, 9)
                .loop("i2", -3, 5)
                .statement("A[10 - 2*i1, -i2 + i1] = A[-i1, 3*i2 - 7] + 1.0")
                .build()
            ),
        ],
    )
    def test_matches_enumeration(self, make_nest):
        nest = make_nest()
        assert nest.is_rectangular
        assert _closed_form_windows(nest) == enumerated_windows(nest)

    def test_store_identical_to_enumerated_store(self):
        nest = example_4_1(9)
        closed = store_for_nest(nest)
        windows = enumerated_windows(nest)
        assert set(closed.keys()) == set(windows.keys())
        for array, (lows, highs) in windows.items():
            margin_lows = [lo - 4 for lo in lows]
            assert closed[array].origin == tuple(margin_lows)
            assert closed[array].shape == tuple(
                hi - lo + 9 for lo, hi in zip(lows, highs)
            )

    def test_empty_iteration_space_has_no_arrays(self):
        nest = (
            loop_nest("empty")
            .loop("i1", 5, 4)
            .statement("A[i1] = A[i1 - 1] + 1.0")
            .build()
        )
        assert store_for_nest(nest) == {}

    def test_non_rectangular_window_is_exact(self):
        nest = (
            loop_nest("triangle")
            .loop("i1", 0, 6)
            .loop("i2", 0, "i1")
            .statement("A[i1, i2] = A[i1 - 1, i2] + 1.0")
            .build()
        )
        assert not nest.is_rectangular
        store = store_for_nest(nest, margin=0)
        # The triangular space only reaches i2 = i1, so the window is exact,
        # not the bounding box a closed-form evaluation would give.
        assert store["A"].origin == (-1, 0)
        assert store["A"].shape == (8, 7)

    def test_large_nest_builds_without_enumeration(self):
        # 1024 x 1024 = ~1M iterations: enumeration takes tens of seconds,
        # the closed form is O(references).
        nest = example_4_1(1024)
        started = time.perf_counter()
        store = store_for_nest(nest, initializer="zeros")
        assert time.perf_counter() - started < 2.0
        assert set(store.keys()) == {"A"}


class TestScannedWindows:
    """Non-rectangular nests scan every level but the innermost; the
    windows, and the order arrays enter the store, equal enumeration's."""

    def test_triangular_wavefront_example(self):
        nest = parse_loop_file(str(EXAMPLE_LOOPS / "triangular_wavefront.loop"))
        assert not nest.is_rectangular
        assert _scanned_windows(nest) == enumerated_windows(nest)

    @pytest.mark.parametrize(
        "make_nest",
        [
            # i2 runs 3 - i1 .. i1 - 3: empty for every i1 < 3.
            lambda: (
                loop_nest("hourglass")
                .loop("i1", 0, 8)
                .loop("i2", "3 - i1", "i1 - 3")
                .statement("A[i1, 2*i2 - i1] = B[i2 + i1] + A[i1 - 1, -i2]")
                .build()
            ),
            # The middle level is empty for some prefixes, the inner one
            # for others.
            lambda: (
                loop_nest("gappy")
                .loop("i1", -2, 5)
                .loop("i2", "i1 - 1", "4 - i1")
                .loop("i3", "i2", "2*i1 - i2")
                .statement("C[i3 - i1, i2] = C[i1 + i3, -i2] * 0.5 + D[i3]")
                .build()
            ),
            # Every prefix is empty: no arrays at all.
            lambda: (
                loop_nest("void")
                .loop("i1", 0, 4)
                .loop("i2", "i1 + 1", "i1")
                .statement("A[i1, i2] = A[i1, i2 - 1] + 1.0")
                .build()
            ),
        ],
        ids=["hourglass", "gappy", "void"],
    )
    def test_empty_inner_ranges(self, make_nest):
        nest = make_nest()
        assert not nest.is_rectangular
        windows = _scanned_windows(nest)
        assert windows == enumerated_windows(nest)
        assert list(windows) == list(enumerated_windows(nest))
        assert list(store_for_nest(nest)) == list(windows)

    def test_large_triangle_builds_without_enumeration(self):
        nest = (
            loop_nest("triangle")
            .loop("i1", 0, 1023)
            .loop("i2", 0, "i1")
            .statement("A[i1, i2] = A[i1 - 2, i2] + 1.0")
            .build()
        )
        started = time.perf_counter()
        store = store_for_nest(nest, initializer="zeros")
        assert time.perf_counter() - started < 2.0
        assert store["A"].origin == (-6, -4) and store["A"].shape == (1034, 1032)
