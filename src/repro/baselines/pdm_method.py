"""The paper's method wrapped in the common baseline interface.

This is exactly the default pass configuration of
:func:`repro.core.pipeline.analyze_nest`, routed through the shared analysis
cache so repeated comparisons over the same workload structures pay for one
analysis only.
"""

from __future__ import annotations

from repro.baselines.base import MethodResult
from repro.core.cache import cached_parallelize
from repro.core.pipeline import analyze_nest
from repro.loopnest.nest import LoopNest

__all__ = ["pdm_method"]


def pdm_method(
    nest: LoopNest, placement: str = "outer", use_cache: bool = True
) -> MethodResult:
    """Run the pseudo-distance-matrix method (this work) on a nest."""
    if use_cache:
        report = cached_parallelize(nest, placement=placement)
    else:
        report = analyze_nest(nest, placement=placement)
    return MethodResult(
        method="pdm (this work)",
        nest_name=nest.name,
        applicable=True,
        dependence_representation="pseudo distance matrix",
        parallel_levels=report.parallel_levels,
        partition_count=report.partition_count,
        transform=report.transform,
        partitioning=report.partitioning,
        notes=f"PDM rank {report.pdm.rank}/{nest.depth}",
    )
