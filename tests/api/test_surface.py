"""Public-API snapshot: surface changes must be explicit diffs, not accidents.

The golden lists below pin ``repro.__all__`` and ``repro.api.__all__``.
Adding, renaming or removing a public name fails here first — update the
snapshot (and the README migration notes) deliberately in the same change.
"""

import importlib

import pytest

import repro
import repro.api
from repro.api import SessionConfig
from repro.core.cache import AnalysisCache
from repro.runtime.backends import CompiledBackend, VectorizedBackend

REPRO_ALL_SNAPSHOT = sorted(
    [
        "__version__",
        # session façade (repro.api)
        "AnalysisResult",
        "RunResult",
        "Session",
        "SessionConfig",
        "SessionStats",
        "resolve_source",
        # serving gateway (repro.gateway)
        "Gateway",
        "GatewayConfig",
        "GatewayOverloaded",
        # loop nest IR
        "AffineExpr",
        "LoopBounds",
        "LoopNest",
        "LoopNestBuilder",
        "Statement",
        "loop_nest",
        "parse_affine",
        "parse_expression",
        "parse_statement",
        # core method
        "ParallelizationReport",
        "PseudoDistanceMatrix",
        "analyze_nest",
        "transform_non_full_rank",
        "partition_full_rank",
        "is_legal_unimodular",
        # code generation
        "TransformedLoopNest",
        "emit_original_source",
        "emit_transformed_source",
        # symbolic execution plans
        "ChunkView",
        "ExecutionPlan",
        # runtime
        "ArrayStore",
        "OffsetArray",
        "ParallelExecutor",
        "execute_nest",
        "execute_transformed",
        "simulate_schedule",
        "store_for_nest",
        "verify_transformation",
        # ISDG
        "build_isdg",
        "compute_statistics",
        # integer linear algebra
        "Lattice",
        "hermite_normal_form",
        "smith_normal_form",
    ]
)

API_ALL_SNAPSHOT = sorted(
    [
        "AnalysisResult",
        "LoopSource",
        "RunResult",
        "Session",
        "SessionConfig",
        "SessionStats",
        "VERIFICATION_POLICIES",
        "parse_loop_file",
        "parse_loop_text",
        "resolve_source",
        "resolve_sources",
    ]
)


def test_repro_all_matches_snapshot():
    assert sorted(repro.__all__) == REPRO_ALL_SNAPSHOT


def test_repro_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == API_ALL_SNAPSHOT


def test_no_duplicate_exports():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert len(repro.api.__all__) == len(set(repro.api.__all__))


def test_every_export_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name
    for name in repro.api.__all__:
        assert hasattr(repro.api, name), name


def test_duplicates_of_the_session_are_gone():
    """One front door: entry points that only wrapped ``Session``,
    ``AnalysisCache.analyze`` or the ``ExecutionPlan`` stay deleted."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.service")
    for owner, name in [
        (importlib.import_module("repro.core.cache"), "cached_parallelize"),
        (importlib.import_module("repro.core.cache"), "parallelize_many"),
        (AnalysisCache, "parallelize"),
        (importlib.import_module("repro.codegen.schedule"), "build_schedule"),
        (importlib.import_module("repro.runtime.interpreter"), "execute_schedule"),
        (CompiledBackend, "execute_original"),
        (VectorizedBackend(), "last_execution_engine"),
    ]:
        assert not hasattr(owner, name), name


def test_options_only_tests_set_are_gone():
    with pytest.raises(TypeError):
        VectorizedBackend(check_independence=False)
    for option in ("include_self", "allow_partitioning"):
        with pytest.raises(TypeError):
            SessionConfig(**{option: False})
