"""repro — reproduction of "Partitioning Loops with Variable Dependence Distances".

Yu & D'Hollander, ICPP 2000.

The package implements the paper's pseudo distance matrix (PDM) analysis,
legal unimodular loop transformations, Algorithm 1 (zeroing PDM columns) and
the iteration-space partitioning transformation, together with the substrate
needed to evaluate them: an affine loop-nest IR, exact integer linear
algebra, a dependence analyzer, code generation, a multi-backend runtime
with a zero-copy shared-memory worker pool, ISDG figures and baseline
methods.

The supported entry point is the :mod:`repro.api` façade: one configured
:class:`Session` owns the analysis cache and the executor lifecycle, accepts
uniform inputs (built nests, ``.loop`` files, loop text) and returns one
structured result model.

Quickstart
----------
>>> from repro import Session, loop_nest
>>> nest = (loop_nest("demo")
...         .loop("i1", -10, 10)
...         .loop("i2", -10, 10)
...         .statement("A[i1, i2] = A[-i1 - 2, 2*i1 + i2 + 2] + 1.0")
...         .build())
>>> with Session() as s:
...     analysis = s.analyze(nest)
...     (analysis.report.pdm.rank, analysis.parallel_loops, analysis.partitions)
(1, 1, 2)

``Session.run`` executes the transformed loop through the configured
backend/mode and ``Session.map`` serves batches; both return results with
``to_dict()`` / ``to_json()`` for serving.
"""

from repro.loopnest import (
    AffineExpr,
    LoopBounds,
    LoopNest,
    LoopNestBuilder,
    Statement,
    loop_nest,
    parse_affine,
    parse_expression,
    parse_statement,
)
from repro.core import (
    ParallelizationReport,
    PseudoDistanceMatrix,
    analyze_nest,
    transform_non_full_rank,
    partition_full_rank,
    is_legal_unimodular,
)
from repro.codegen import (
    TransformedLoopNest,
    build_schedule,
    emit_original_source,
    emit_transformed_source,
)
from repro.plan import ChunkView, ExecutionPlan
from repro.runtime import (
    ArrayStore,
    OffsetArray,
    ParallelExecutor,
    execute_nest,
    execute_transformed,
    simulate_schedule,
    store_for_nest,
    verify_transformation,
)
from repro.api import (
    AnalysisResult,
    RunResult,
    Session,
    SessionConfig,
    SessionStats,
    resolve_source,
)
from repro.gateway import Gateway, GatewayConfig, GatewayOverloaded
from repro.isdg import build_isdg, compute_statistics
from repro.intlin import Lattice, hermite_normal_form, smith_normal_form

__version__ = "1.1.0"

__all__ = [
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
    "build_schedule",
    # symbolic execution plans
    "ChunkView",
    "ExecutionPlan",
    "emit_original_source",
    "emit_transformed_source",
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
