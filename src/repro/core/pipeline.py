"""The end-to-end parallelization method of the paper.

``analyze_nest(nest)`` performs, in order:

1. build the pseudo distance matrix of the nest (Section 2);
2. if the PDM is empty (no dependences) every loop is parallel;
3. if the PDM is rank deficient, run Algorithm 1 to obtain a legal unimodular
   transformation with ``n - rank`` zero columns → that many ``doall`` loops
   (Section 3.2);
4. if the remaining full-rank block (or the full PDM itself) has a
   determinant larger than 1, apply the partitioning transformation to obtain
   ``det`` additional independent partitions (Section 3.3).

Each stage is a :class:`~repro.core.passes.Pass`; :func:`analyze_nest` is a
thin wrapper that runs the default :class:`~repro.core.passes.PassManager`
sequence and packages the context into a :class:`ParallelizationReport`.
Structurally identical nests can share one analysis through the memoizing
cache in :mod:`repro.core.cache`.  The result is a
:class:`ParallelizationReport`; code generation and execution of the
transformed loop live in :mod:`repro.codegen` and :mod:`repro.runtime`.

User code should prefer the :mod:`repro.api` façade: ``Session.analyze``
wraps this pipeline with memoization, uniform inputs and the structured
result model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.algorithm1 import Algorithm1Result
from repro.core.legality import is_legal_unimodular
from repro.core.partition import PartitioningResult
from repro.core.passes import (
    Algorithm1Pass,
    BuildPDMPass,
    DependenceAnalysisPass,
    FullRankPass,
    LegalityPass,
    PartitionPass,
    PassManager,
    PassTiming,
    PipelineContext,
    format_pass_timings,
)
from repro.core.pdm import PseudoDistanceMatrix
from repro.core.report import TransformationStep
from repro.intlin.matrix import Matrix, identity_matrix, mat_equal
from repro.loopnest.nest import LoopNest
from repro.utils.formatting import format_matrix, indent_block

__all__ = [
    "ParallelizationReport",
    "default_pass_manager",
    "report_from_context",
    "analyze_nest",
]


@dataclass(frozen=True)
class ParallelizationReport:
    """Everything the analysis derived about one loop nest."""

    nest: LoopNest
    pdm: PseudoDistanceMatrix
    placement: str
    transform: Matrix
    transformed_pdm: Matrix
    parallel_levels: Tuple[int, ...]
    sequential_levels: Tuple[int, ...]
    partitioning: Optional[PartitioningResult]
    steps: Tuple[TransformationStep, ...] = field(default=(), compare=False)
    algorithm1: Optional[Algorithm1Result] = field(default=None, compare=False, repr=False)
    pass_timings: Tuple[PassTiming, ...] = field(default=(), compare=False, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        return self.nest.depth

    @property
    def uses_unimodular_transform(self) -> bool:
        """True if a non-identity unimodular transformation is applied."""
        return not mat_equal(self.transform, identity_matrix(self.depth))

    @property
    def uses_partitioning(self) -> bool:
        return self.partitioning is not None

    @property
    def partition_count(self) -> int:
        """Number of independent partitions (1 when partitioning is not used)."""
        return self.partitioning.num_partitions if self.partitioning else 1

    @property
    def parallel_loop_count(self) -> int:
        return len(self.parallel_levels)

    @property
    def is_fully_sequential(self) -> bool:
        """True if the method found no parallelism at all."""
        return self.parallel_loop_count == 0 and self.partition_count == 1

    @property
    def new_index_names(self) -> Tuple[str, ...]:
        """Index names of the transformed loop (``j1, j2, ...`` as in the paper)."""
        return tuple(f"j{k + 1}" for k in range(self.depth))

    def transform_is_legal(self) -> bool:
        """Re-check Theorem 1 for the reported transformation."""
        return is_legal_unimodular(self.pdm, self.transform)

    def build_plan(self):
        """The symbolic :class:`~repro.plan.ExecutionPlan` of this report.

        Convenience for consumers that want schedule statistics straight
        from an analysis result: the plan's chunk counts and sizes are
        closed-form, so reporting on a million-iteration nest costs O(depth)
        memory — no iteration is ever materialized.
        """
        # Imported lazily: codegen imports this module for the report type.
        from repro.codegen.transformed_nest import TransformedLoopNest

        return TransformedLoopNest.from_report(self).execution_plan()

    def timing_summary(self) -> str:
        """Per-pass wall-clock timings of the analysis that built this report."""
        return format_pass_timings(self.pass_timings)

    def summary(self) -> str:
        """Multi-line human readable summary of the analysis."""
        lines: List[str] = [f"Parallelization report for {self.nest.name!r} (depth {self.depth})"]
        lines.append(indent_block(self.pdm.describe(), "  "))
        if self.uses_unimodular_transform:
            lines.append("  Unimodular transformation T (new index = old index @ T):")
            lines.append(indent_block(format_matrix(self.transform), "    "))
            lines.append("  Transformed PDM (PDM @ T):")
            lines.append(indent_block(format_matrix(self.transformed_pdm), "    "))
        else:
            lines.append("  No unimodular transformation needed (identity).")
        if self.parallel_levels:
            names = [self.new_index_names[k] for k in self.parallel_levels]
            lines.append(f"  Parallel (doall) loops: {', '.join(names)}")
        else:
            lines.append("  Parallel (doall) loops: none")
        if self.partitioning:
            lines.append(indent_block(self.partitioning.describe(), "  "))
        else:
            lines.append("  Partitioning: not applied")
        lines.append(
            f"  Exploited parallelism: {self.parallel_loop_count} doall loop(s) "
            f"x {self.partition_count} partition(s)"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


def default_pass_manager() -> PassManager:
    """The paper's pipeline as the default pass sequence."""
    return PassManager(
        (
            DependenceAnalysisPass(),
            BuildPDMPass(),
            Algorithm1Pass(),
            FullRankPass(),
            LegalityPass(),
            PartitionPass(),
        ),
        name="pdm-parallelize",
    )


#: The passes hold only their configuration, so every analysis shares one.
_DEFAULT_PASS_MANAGER = default_pass_manager()


def report_from_context(ctx: PipelineContext) -> ParallelizationReport:
    """Package a fully-run pipeline context into the public report type."""
    return ParallelizationReport(
        nest=ctx.nest,
        pdm=ctx.pdm,
        placement=ctx.placement,
        transform=ctx.transform,
        transformed_pdm=ctx.transformed_pdm,
        parallel_levels=tuple(ctx.parallel_levels),
        sequential_levels=tuple(ctx.sequential_levels),
        partitioning=ctx.partitioning,
        steps=tuple(ctx.steps),
        algorithm1=ctx.algorithm1,
        pass_timings=tuple(ctx.timings),
    )


def analyze_nest(
    nest: LoopNest,
    placement: str = "outer",
    include_self: bool = True,
    allow_partitioning: bool = True,
) -> ParallelizationReport:
    """Run the paper's full parallelization method on a loop nest.

    This is the uncached analysis primitive; user code should normally go
    through :meth:`repro.api.Session.analyze`, which adds memoization,
    uniform inputs and the serving-ready result model.

    Parameters
    ----------
    nest:
        The perfectly nested affine loop to parallelize.
    placement:
        Where to place the parallel loops created by Algorithm 1:
        ``'outer'`` (coarse grain) or ``'inner'`` (fine grain).
    include_self:
        Whether write references are paired with themselves (output
        self-dependences), as in the paper's Section 4.1 example.
    allow_partitioning:
        Allow the Section 3.3 partitioning step when the (remaining) PDM
        block is full rank with determinant > 1.
    """
    ctx = PipelineContext(
        nest=nest,
        placement=placement,
        include_self=include_self,
        allow_partitioning=allow_partitioning,
    )
    _DEFAULT_PASS_MANAGER.run(ctx)
    return report_from_context(ctx)

