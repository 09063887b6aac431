"""Canonicalization invariance: naming never changes the analysis cache key."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import parse_loop_text
from repro.loopnest.canonical import (
    canonical_hash,
    canonical_key,
    canonical_key_tuple,
    canonicalize,
    rename_nest_arrays,
    rename_nest_indices,
    source_key,
)
from repro.loopnest.expr import UnaryOp
from repro.loopnest.statement import Statement
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.kernels import wavefront_recurrence
from repro.workloads.suite import workload_suite
from repro.workloads.synthetic import random_affine_loop

_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestIndexRenamingInvariance:
    @settings(**_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_nest_positional_rename(self, seed):
        nest = random_affine_loop(seed=seed, n=3)
        new_names = [f"k{i + 1}" for i in range(nest.depth)]
        renamed = rename_nest_indices(nest, new_names)
        assert renamed.index_names == tuple(new_names)
        assert canonical_hash(renamed) == canonical_hash(nest)
        assert canonical_key(renamed) == canonical_key(nest)

    @settings(**_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_nest_name_swap(self, seed):
        nest = random_affine_loop(seed=seed, n=2)
        swapped = rename_nest_indices(nest, list(reversed(nest.index_names)))
        # Positional swap of the *names* only — loop order is unchanged, so
        # the structure (and hash) is identical.
        assert canonical_hash(swapped) == canonical_hash(nest)

    def test_array_renaming_invariance(self):
        nest = example_4_1(6)
        renamed = rename_nest_arrays(nest, {"A": "ZZ_buffer"})
        assert "ZZ_buffer" in renamed.array_names()
        assert canonical_hash(renamed) == canonical_hash(nest)

    def test_nest_name_ignored(self):
        nest = example_4_1(6)
        assert canonical_hash(nest.rename("something-else")) == canonical_hash(nest)


class TestStatementPreservingRewrites:
    @settings(**_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_unary_plus_is_dropped(self, seed):
        nest = random_affine_loop(seed=seed, n=2)
        wrapped = nest.with_statements(
            [Statement(s.target, UnaryOp("+", s.rhs)) for s in nest.statements]
        )
        assert canonical_hash(wrapped) == canonical_hash(nest)

    def test_int_and_float_constants_agree(self):
        a = parse_loop_text("loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 2\n")
        b = parse_loop_text("loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 2.0\n")
        assert canonical_hash(a) == canonical_hash(b)

    def test_combined_rewrite_chain(self):
        """Rename indices, rename arrays, rename the nest, wrap in unary plus —
        the hash survives the whole chain."""
        nest = example_4_2(6)
        rewritten = rename_nest_indices(nest, ["p", "q"])
        rewritten = rename_nest_arrays(rewritten, {name: f"buf_{name}" for name in rewritten.array_names()})
        rewritten = rewritten.with_statements(
            [Statement(s.target, UnaryOp("+", s.rhs)) for s in rewritten.statements]
        )
        rewritten = rewritten.rename("rewritten")
        assert canonical_hash(rewritten) == canonical_hash(nest)


class TestHashDiscriminates:
    def test_different_bounds_differ(self):
        assert canonical_hash(example_4_1(6)) != canonical_hash(example_4_1(8))

    def test_different_kernels_differ(self):
        hashes = {
            canonical_hash(example_4_1(6)),
            canonical_hash(example_4_2(6)),
            canonical_hash(wavefront_recurrence(6)),
        }
        assert len(hashes) == 3

    def test_extra_statement_differs(self):
        base = parse_loop_text("loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 1.0\n")
        more = parse_loop_text(
            "loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 1.0\nB[i1] = A[i1] + 1.0\n"
        )
        assert canonical_hash(base) != canonical_hash(more)

    def test_array_identity_structure_differs(self):
        # Reading the written array vs. reading a different array is a
        # different dependence structure, not a naming change.
        same = parse_loop_text("loop i1 = 0 .. 5\nA[i1] = A[i1 - 1] + 1.0\n")
        other = parse_loop_text("loop i1 = 0 .. 5\nA[i1] = B[i1 - 1] + 1.0\n")
        assert canonical_hash(same) != canonical_hash(other)


class TestCanonicalForm:
    def test_canonical_nest_shape(self):
        form = canonicalize(example_4_1(6))
        assert form.nest.index_names == ("c1", "c2")
        assert form.nest.array_names() == {"A0"}
        assert form.nest.name == "canonical"
        assert form.hash == canonical_hash(example_4_1(6))

    def test_arrays_are_named_in_order_of_first_appearance(self):
        # Each target before its right-hand side, operands left to right:
        # the key and the canonical nest name the arrays alike.
        nest = parse_loop_text(
            "loop i1 = 0 .. 5\n"
            "C[i1] = B[i1 - 1] + sqrt(A[i1]) * (-B[i1])\n"
            "A[i1] = D[i1] + C[i1]\n"
        )
        form = canonicalize(nest)
        assert dict(form.array_mapping) == {"C": "A0", "B": "A1", "A": "A2", "D": "A3"}
        assert canonical_key(nest) == canonical_key(form.nest)

        def refs(key):
            if isinstance(key, tuple):
                if key[:1] == ("ref",):
                    yield key[1]
                for part in key:
                    yield from refs(part)

        names = list(refs(canonical_key_tuple(nest)))
        assert names == ["A0", "A1", "A2", "A1", "A2", "A3", "A0"]

    def test_canonicalization_is_idempotent(self):
        nest = example_4_2(6)
        form = canonicalize(nest)
        assert canonical_hash(form.nest) == form.hash
        assert canonicalize(form.nest).key == form.key

    def test_workload_suite_hashes_are_deterministic(self):
        first = [canonical_hash(case.nest) for case in workload_suite(6)]
        second = [canonical_hash(case.nest) for case in workload_suite(6)]
        assert first == second

    def test_canonical_nest_preserves_iteration_space(self):
        nest = wavefront_recurrence(5)
        form = canonicalize(nest)
        assert form.nest.iteration_count() == nest.iteration_count()
        assert form.nest.depth == nest.depth


class TestSourceKey:
    """``source_key`` tells nests apart wherever their rendered source differs."""

    @staticmethod
    def _nest(body, index="i1"):
        return parse_loop_text(f"loop {index} = 1 .. 6\n{body}")

    def test_equal_source_equal_key(self):
        body = "A[i1] = A[i1 - 1] * 0.5 + sin(B[i1])"
        first, second = self._nest(body), self._nest(body)
        assert str(first) == str(second)
        assert source_key(first) == source_key(second)
        assert hash(source_key(first)) == hash(source_key(second))

    @pytest.mark.parametrize(
        "body, other",
        [
            ("A[i1] = A[i1 - 1] * 2", "A[i1] = A[i1 - 1] * 2.0"),
            ("A[i1] = A[i1 - 1] * 0.0", "A[i1] = A[i1 - 1] * -0.0"),
            ("A[i1] = A[i1 - 1] + 1.0", "A[i1] = A[i1 - 1] + +1.0"),
            ("A[i1] = A[i1 - 1] + 1.0", "B[i1] = B[i1 - 1] + 1.0"),
        ],
    )
    def test_different_source_different_key(self, body, other):
        first, second = self._nest(body), self._nest(other)
        assert str(first) != str(second)
        assert source_key(first) != source_key(second)

    def test_index_names_count(self):
        first = self._nest("A[i1] = A[i1 - 1] + 1.0")
        second = self._nest("A[k] = A[k - 1] + 1.0", index="k")
        assert source_key(first) != source_key(second)
