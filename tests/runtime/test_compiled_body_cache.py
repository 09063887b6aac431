"""CompiledBackend body cache: canonical keying, bounded LRU, correctness.

Before this cache was keyed canonically it grew one compiled body per nest
*object* — a long-running ``BatchService`` process serving arbitrary traffic
would leak compiled code forever.  Now bodies are shared across
alpha-renamed copies of one program, the LRU is bounded by
``body_cache_limit``, and the int-vs-float constant signature keeps
``//``/``%``/``**`` semantics exact even though the canonical key
normalizes constants to floats.
"""

import pytest

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.loopnest.builder import loop_nest
from repro.loopnest.canonical import (
    canonical_body_key,
    canonical_key_tuple,
    constant_kind_signature,
    positional_rename,
)
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import CompiledBackend
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1


@pytest.fixture(autouse=True)
def clean_cache():
    CompiledBackend.clear_body_cache()
    yield
    CompiledBackend.clear_body_cache()


def _run_compiled(nest):
    base = store_for_nest(nest)
    ref = base.copy()
    execute_nest(nest, ref)
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    result = base.copy()
    CompiledBackend().execute(transformed, result)
    assert ref.identical(result), nest.name
    return result


def _recurrence(index, array, scale="0.5"):
    return (
        loop_nest(f"body-{index}-{array}")
        .loop(index, 1, 8)
        .statement(f"{array}[{index}] = {array}[{index} - 1] * {scale} + 2.0")
        .build()
    )


class TestCanonicalSharing:
    def test_alpha_renamed_nests_share_one_body(self):
        first = _recurrence("i1", "A")
        second = _recurrence("k1", "Z")
        assert canonical_key_tuple(first) == canonical_key_tuple(second)
        _run_compiled(first)
        _run_compiled(second)
        info = CompiledBackend.body_cache_info()
        assert info["size"] == 1
        assert info["misses"] == 1
        assert info["hits"] >= 1

    def test_one_program_at_two_sizes_shares_one_body(self):
        # The body runs over explicit iteration lists; the loop bounds are
        # not part of its key.
        _run_compiled(example_4_1(5))
        _run_compiled(example_4_1(8))
        info = CompiledBackend.body_cache_info()
        assert (info["size"], info["misses"]) == (1, 1)
        assert info["hits"] >= 1

    def test_same_nest_object_uses_weak_fast_path(self):
        nest = _recurrence("i1", "A")
        first = CompiledBackend.body_function(nest)
        hits_before = CompiledBackend.body_cache_info()["hits"]
        # The second lookup must come from the per-object weak map, not the
        # keyed LRU (no hit recorded, same function object).
        assert CompiledBackend.body_function(nest) is first
        assert CompiledBackend.body_cache_info()["hits"] == hits_before

    def test_int_float_constants_get_distinct_bodies(self):
        # 7 // 2 == 3 but 7.0 // 2 == 3.0 — int-vs-float constants must not
        # collapse onto one compiled body even though the canonical key
        # (which float-normalizes constants) is identical.
        int_nest = (
            loop_nest("int-const")
            .loop("i1", 1, 6)
            .statement("A[i1] = B[i1] + 7 // 2")
            .build()
        )
        float_nest = (
            loop_nest("float-const")
            .loop("i1", 1, 6)
            .statement("A[i1] = B[i1] + 7.0 // 2")
            .build()
        )
        assert canonical_key_tuple(int_nest) == canonical_key_tuple(float_nest)
        assert constant_kind_signature(int_nest) != constant_kind_signature(float_nest)
        _run_compiled(int_nest)
        _run_compiled(float_nest)
        assert CompiledBackend.body_cache_info()["size"] == 2

    def test_positional_rename_keeps_constant_types(self):
        nest = (
            loop_nest("typed")
            .loop("i1", 1, 6)
            .statement("A[i1] = B[i1] + 7 // 2 + 0.25")
            .build()
        )
        renamed = positional_rename(nest)
        assert constant_kind_signature(renamed) == constant_kind_signature(nest)
        assert canonical_key_tuple(renamed) == canonical_key_tuple(nest)


class TestBoundedLRU:
    def test_eviction_at_limit(self, monkeypatch):
        monkeypatch.setattr(CompiledBackend, "body_cache_limit", 2)
        nests = [
            (
                loop_nest(f"distinct-{k}")
                .loop("i1", 1, 6)
                .statement(f"A[i1] = A[i1 - 1] + {float(k + 1)}")
                .build()
            )
            for k in range(4)
        ]
        for nest in nests:
            _run_compiled(nest)
        info = CompiledBackend.body_cache_info()
        assert info["size"] == 2
        assert info["evictions"] == 2
        assert info["misses"] == 4

    def test_evicted_body_recompiles_and_stays_correct(self, monkeypatch):
        monkeypatch.setattr(CompiledBackend, "body_cache_limit", 1)
        first = _recurrence("i1", "A", scale="0.5")
        second = _recurrence("i1", "A", scale="0.25")
        _run_compiled(first)
        _run_compiled(second)  # evicts first's body
        CompiledBackend._nest_bodies.pop(first, None)  # drop the weak fast path
        _run_compiled(first)  # recompiles, still bit-identical
        assert CompiledBackend.body_cache_info()["evictions"] >= 2

    def test_lru_order_is_recency(self, monkeypatch):
        monkeypatch.setattr(CompiledBackend, "body_cache_limit", 2)
        a = _recurrence("i1", "A", scale="0.5")
        b = _recurrence("i1", "A", scale="0.25")
        c = _recurrence("i1", "A", scale="0.75")
        for nest in (a, b):
            CompiledBackend.body_function(nest)
        key_a = (canonical_body_key(a), constant_kind_signature(a))
        CompiledBackend._nest_bodies.pop(a, None)
        CompiledBackend.body_function(a)  # refresh recency of a via the LRU
        CompiledBackend.body_function(c)  # must evict b, not a
        assert key_a in CompiledBackend._body_lru


class TestRemapCorrectness:
    def test_remapped_store_keys_execute_correctly(self):
        # The compiled body runs over canonical array names (A0, A1, ...);
        # the wrapper must remap the caller's actual store keys.
        nest = (
            loop_nest("remap")
            .loop("i1", 1, 6)
            .loop("i2", 1, 6)
            .statement("zeta[i1, i2] = alpha[i1 - 1, i2] + zeta[i1, i2 - 1]")
            .build()
        )
        _run_compiled(nest)

    def test_example_nest_unchanged(self):
        _run_compiled(example_4_1(6))
