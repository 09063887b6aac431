"""The analysis side of the paper as a pass-based compiler pipeline.

The end-to-end method (Section 2 → Section 3.3) is inherently staged:
dependence analysis, PDM construction, rank analysis (Algorithm 1 or the
full-rank identity), the Theorem 1 legality check and finally lattice
partitioning.  Each stage is a :class:`Pass` over a shared mutable
:class:`PipelineContext`; a :class:`PassManager` runs a configured sequence
of passes, timing each one and recording whether it was skipped.

:func:`repro.core.pipeline.analyze_nest` is a thin wrapper over the default
pass sequence; the baseline methods in :mod:`repro.baselines` are alternate
pass configurations over the same context, so every method shares one
dependence analysis/PDM implementation instead of re-deriving it privately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.algorithm1 import Algorithm1Result, _transform
from repro.core.legality import _check_legal
from repro.core.partition import PartitioningResult, _partitioning
from repro.core.pdm import PseudoDistanceMatrix
from repro.core.report import TransformationStep
from repro.dependence.solver import DependenceSolution, analyze_loop_dependences
from repro.exceptions import ShapeError
from repro.intlin.hermite import _hermite_normal_form, hermite_normal_form
from repro.intlin.matrix import Matrix, identity_matrix, leading_index
from repro.loopnest.nest import LoopNest
from repro.utils.validation import trusted_record

__all__ = [
    "PassTiming",
    "PipelineContext",
    "Pass",
    "PassManager",
    "DependenceAnalysisPass",
    "BuildPDMPass",
    "Algorithm1Pass",
    "FullRankPass",
    "LegalityPass",
    "PartitionPass",
    "block_determinant",
    "format_pass_timings",
]


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock cost of one pass within one pipeline run."""

    name: str
    seconds: float
    skipped: bool = False

    def describe(self) -> str:
        status = "skipped" if self.skipped else f"{self.seconds * 1000.0:9.3f} ms"
        return f"{self.name:<12} {status}"


def format_pass_timings(timings: Sequence[PassTiming]) -> str:
    """Render per-pass timings as an aligned text block."""
    if not timings:
        return "(no pass timings recorded)"
    return "\n".join(t.describe() for t in timings)


@dataclass
class PipelineContext:
    """Shared state the passes read and write.

    The immutable inputs are the nest and the three knobs of
    :func:`repro.core.pipeline.analyze_nest`; everything else is derived
    state filled in by the passes.  ``finished`` short-circuits the rest of
    the pipeline (set when the analysis concluded early, e.g. an empty PDM);
    ``applicable``/``notes`` let baseline configurations report a method
    that gives up on the nest; ``extras`` is scratch space for
    method-specific passes.
    """

    nest: LoopNest
    placement: str = "outer"
    include_self: bool = True
    allow_partitioning: bool = True

    solutions: Optional[Tuple[DependenceSolution, ...]] = None
    pdm: Optional[PseudoDistanceMatrix] = None
    transform: Optional[Matrix] = None
    transformed_pdm: Optional[Matrix] = None
    parallel_levels: Tuple[int, ...] = ()
    sequential_levels: Tuple[int, ...] = ()
    sequential_block: Matrix = field(default_factory=list)
    partitioning: Optional[PartitioningResult] = None
    algorithm1: Optional[Algorithm1Result] = None
    steps: List[TransformationStep] = field(default_factory=list)
    timings: List[PassTiming] = field(default_factory=list)
    finished: bool = False
    applicable: bool = True
    notes: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.placement not in ("outer", "inner"):
            raise ShapeError(
                f"placement must be 'outer' or 'inner', got {self.placement!r}"
            )

    @property
    def depth(self) -> int:
        return self.nest.depth

    def add_step(self, name: str, description: str, matrix: Optional[Matrix] = None) -> None:
        # Steps are presentational snapshots; freezing the matrix here makes
        # recorded steps immutable, so cached reports can share them safely.
        if matrix is not None:
            matrix = tuple(tuple(row) for row in matrix)
        self.steps.append(TransformationStep(name, description, matrix))


class Pass:
    """One stage of the analysis pipeline."""

    name: str = "pass"

    def should_run(self, ctx: PipelineContext) -> bool:
        """Whether the pass applies to the current context state."""
        return not ctx.finished

    def run(self, ctx: PipelineContext) -> None:
        raise NotImplementedError


class PassManager:
    """Run a configured pass sequence over a context, timing every pass."""

    def __init__(self, passes: Sequence[Pass], name: str = "analysis"):
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.name = str(name)

    def run(self, ctx: PipelineContext) -> PipelineContext:
        for pipeline_pass in self.passes:
            if not pipeline_pass.should_run(ctx):
                ctx.timings.append(
                    trusted_record(PassTiming, name=pipeline_pass.name, seconds=0.0, skipped=True)
                )
                continue
            start = time.perf_counter()
            pipeline_pass.run(ctx)
            seconds = time.perf_counter() - start
            ctx.timings.append(
                trusted_record(PassTiming, name=pipeline_pass.name, seconds=seconds, skipped=False)
            )
        return ctx

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"PassManager({self.name!r}: {names})"


# --------------------------------------------------------------------------- #
# the shared analysis passes
# --------------------------------------------------------------------------- #

class DependenceAnalysisPass(Pass):
    """Solve the per-reference-pair dependence equations (Section 2.2).

    The solutions are shared by every downstream consumer: the PDM
    construction and the uniform-distance baselines all read
    ``ctx.solutions`` instead of re-running the solver.
    """

    name = "dependence"

    def should_run(self, ctx: PipelineContext) -> bool:
        return not ctx.finished and ctx.solutions is None

    def run(self, ctx: PipelineContext) -> None:
        ctx.solutions = tuple(
            analyze_loop_dependences(ctx.nest, include_self=ctx.include_self)
        )


class BuildPDMPass(Pass):
    """Stack the dependence generators and reduce them to the PDM (HNF)."""

    name = "build-pdm"

    def run(self, ctx: PipelineContext) -> None:
        if ctx.solutions is not None:
            ctx.pdm = PseudoDistanceMatrix.from_solutions(ctx.solutions, ctx.nest)
        else:
            ctx.pdm = PseudoDistanceMatrix.from_loop_nest(
                ctx.nest, include_self=ctx.include_self
            )
        n = ctx.depth
        ctx.add_step(
            "pdm",
            f"pseudo distance matrix of rank {ctx.pdm.rank} (loop depth {n})",
            ctx.pdm.matrix,
        )
        if ctx.pdm.is_empty:
            # No loop-carried dependences: every loop is a doall loop.
            ctx.transform = identity_matrix(n)
            ctx.transformed_pdm = []
            ctx.parallel_levels = tuple(range(n))
            ctx.sequential_levels = ()
            ctx.sequential_block = []
            ctx.add_step(
                "independent", "no loop-carried dependences: all loops parallel"
            )
            ctx.finished = True


class Algorithm1Pass(Pass):
    """Algorithm 1 (Section 3.2): zero out ``n - rank`` columns legally.

    By default the pass only fires for a rank-deficient PDM, as in the
    paper's pipeline.  ``run_when_full_rank=True`` reproduces Banerjee-style
    configurations that echelonize a full-rank distance matrix as well.
    """

    name = "algorithm1"

    def __init__(self, run_when_full_rank: bool = False):
        self.run_when_full_rank = run_when_full_rank

    def should_run(self, ctx: PipelineContext) -> bool:
        if ctx.finished or ctx.pdm is None:
            return False
        return self.run_when_full_rank or ctx.pdm.rank < ctx.depth

    def run(self, ctx: PipelineContext) -> None:
        result = _transform(ctx.pdm.matrix, ctx.depth, ctx.placement)
        ctx.algorithm1 = result
        ctx.transform = result.transform
        ctx.transformed_pdm = result.transformed
        ctx.parallel_levels = tuple(result.zero_columns)
        ctx.sequential_levels = tuple(result.sequential_columns)
        ctx.sequential_block = result.sequential_block
        ctx.add_step(
            "algorithm1",
            f"legal unimodular transformation creating "
            f"{len(result.zero_columns)} zero column(s)",
            result.transform,
        )


class FullRankPass(Pass):
    """Identity transformation when no unimodular step applies.

    Runs only when no earlier pass installed a transformation — in the
    default pipeline that is exactly the full-rank-PDM case (Algorithm 1
    fired otherwise).  Zero PDM columns are still parallel (Lemma 1); the
    remaining columns form the sequential block the partitioning pass
    inspects.
    """

    name = "full-rank"

    def should_run(self, ctx: PipelineContext) -> bool:
        return not ctx.finished and ctx.pdm is not None and ctx.transform is None

    def run(self, ctx: PipelineContext) -> None:
        n = ctx.depth
        ctx.transform = identity_matrix(n)
        ctx.transformed_pdm = [row[:] for row in ctx.pdm.matrix]
        ctx.parallel_levels = tuple(ctx.pdm.zero_columns())
        ctx.sequential_levels = tuple(
            k for k in range(n) if k not in ctx.parallel_levels
        )
        ctx.sequential_block = [
            [row[c] for c in ctx.sequential_levels] for row in ctx.transformed_pdm
        ]
        if ctx.pdm.is_full_rank:
            description = "the PDM is full rank: no unimodular transformation applied"
        else:
            description = "no unimodular transformation applied (identity)"
        ctx.add_step("full-rank", description)


class LegalityPass(Pass):
    """Theorem 1: verify the installed transformation preserves dependences."""

    name = "legality"

    def should_run(self, ctx: PipelineContext) -> bool:
        return not ctx.finished and ctx.pdm is not None and ctx.transform is not None

    def run(self, ctx: PipelineContext) -> None:
        _check_legal(ctx.pdm.matrix, ctx.transform)


def block_determinant(block: Sequence[Sequence[int]], size: Optional[int] = None) -> int:
    """Lattice determinant of a generator block, via its Hermite normal form.

    ``size`` is the expected dimension (number of columns / partitioned
    levels).  Returns the product of the HNF pivots when the block has full
    rank ``size``, and ``0`` when it is rank deficient — partitioning does
    not apply then.  Unlike the product of per-row leading entries this is
    correct for *any* generator block, not only echelon-form ones.
    """
    rows = [list(row) for row in block if any(row)]
    if size is None:
        size = len(block[0]) if block else 0
    return _hnf_determinant(hermite_normal_form(rows).hermite if rows else [], size)


def _hnf_determinant(hnf: Matrix, size: int) -> int:
    """:func:`block_determinant` from the HNF of the block's nonzero rows."""
    if len(hnf) < size:
        return 0
    det = 1
    for row in hnf:
        det *= row[leading_index(row)]
    return det


class PartitionPass(Pass):
    """Section 3.3: split the sequential block into ``det`` lattice cosets.

    The partition-count decision uses :func:`block_determinant` (the HNF of
    the sequential block), so a non-echelon or rank-deficient block is
    handled correctly.  ``require_full_rank_pdm=True`` reproduces the
    D'Hollander baseline, which only partitions a full-rank distance matrix.
    """

    name = "partition"

    def __init__(self, require_full_rank_pdm: bool = False):
        self.require_full_rank_pdm = require_full_rank_pdm

    def should_run(self, ctx: PipelineContext) -> bool:
        if ctx.finished or not ctx.allow_partitioning or not ctx.sequential_levels:
            return False
        if self.require_full_rank_pdm and not (ctx.pdm and ctx.pdm.is_full_rank):
            return False
        return True

    def run(self, ctx: PipelineContext) -> None:
        # One HNF of the sequential block decides the count and partitions.
        rows = [row for row in ctx.sequential_block if any(row)]
        hnf = _hermite_normal_form(rows).hermite if rows else []
        det = _hnf_determinant(hnf, len(ctx.sequential_levels))
        ctx.extras["block_determinant"] = det
        if det <= 1:
            return
        ctx.partitioning = _partitioning(hnf, ctx.sequential_levels, ctx.depth)
        ctx.add_step(
            "partitioning",
            f"iteration space split into {ctx.partitioning.num_partitions} "
            "independent partitions",
            ctx.partitioning.hnf,
        )
