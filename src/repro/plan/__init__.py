"""Symbolic execution plans: the IR between analysis and runtime.

``repro.plan`` replaces the materialized chunk lists of the legacy
``repro.codegen.schedule`` module with a parametric description of the
transformed iteration space.  A plan is derived once from a
:class:`~repro.codegen.transformed_nest.TransformedLoopNest`, pickles to a
few hundred bytes, and lets every consumer — backends, executors, worker
processes, reports — enumerate exactly the chunks (and only the chunks) it
needs, lazily.  See :mod:`repro.plan.ir` for the ordering and closed-form
contracts.
"""

from repro.plan.ir import ChunkView, ExecutionPlan, PlanLevel
from repro.plan.passes import (
    DEFAULT_PLAN_PASSES,
    CoalesceChunksPass,
    PlanPass,
    PlanPassManager,
    PlanPipelineContext,
    available_plan_passes,
    build_plan_pipeline,
    get_plan_pass,
    optimize_plan,
    register_plan_pass,
)

__all__ = [
    "ChunkView",
    "ExecutionPlan",
    "PlanLevel",
    "PlanPass",
    "PlanPassManager",
    "PlanPipelineContext",
    "CoalesceChunksPass",
    "register_plan_pass",
    "get_plan_pass",
    "available_plan_passes",
    "build_plan_pipeline",
    "optimize_plan",
    "DEFAULT_PLAN_PASSES",
]
