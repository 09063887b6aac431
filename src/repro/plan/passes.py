"""Plan→plan optimization passes over the symbolic ExecutionPlan IR.

The analysis side of the repo has been pass-based since the
:class:`~repro.core.passes.PassManager` refactor; this module gives the
*plan* side the same shape.  A :class:`PlanPass` rewrites one or more
symbolic :class:`~repro.plan.ExecutionPlan` objects into cheaper but
result-identical plans; a :class:`PlanPassManager` runs a configured
sequence of them over a :class:`PlanPipelineContext`, timing every pass
(:class:`~repro.core.passes.PassTiming`) and recording every rewrite as a
:class:`~repro.core.report.TransformationStep` — exactly the protocol the
analysis pipeline uses, so timings and steps render through the same
helpers.

One rewrite ships:

* :class:`CoalesceChunksPass` — merge adjacent chunks into larger doall
  ranges.  Partition labels on the same parallel front are folded into one
  chunk (the partitioned levels become plain sequential levels scanned with
  step 1), and adjacent parallel fronts are merged ``block`` at a time via
  the :class:`~repro.plan.PlanLevel` ``block`` attribute.  Both moves are
  pure *regroupings* of the same iterations: chunks of a legal schedule are
  pairwise independent (Lemma 1 / Theorem 2), so executing several of them
  interleaved in lexicographic order — which is what the merged chunk does —
  is a legal order, and every iteration executes exactly once.  Fewer chunks
  means fewer dispatches, smaller pool messages and fatter vectorized
  rounds.

A rewrite preserves the differential contract bit for bit: the multiset
of executed iterations and the resulting array contents are identical to
the enumeration reference (``build_schedule_by_enumeration``), for every
backend and execution mode.  ``tests/plan/test_plan_passes.py`` pins this.

Passes register by name — :func:`register_plan_pass` /
:func:`get_plan_pass`, mirroring the backend registry — so a session can be
configured with ``plan_passes=("coalesce",)`` strings end to end (CLI:
``--plan-passes`` / ``--no-plan-passes``).  ``DEFAULT_PLAN_PASSES`` is the
pipeline the dispatch-bound session modes run unless configured otherwise:

    >>> from repro.plan import DEFAULT_PLAN_PASSES
    >>> DEFAULT_PLAN_PASSES
    ('coalesce',)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.passes import Pass, PassManager, PassTiming
from repro.core.report import TransformationStep
from repro.exceptions import CodegenError
from repro.plan.ir import ExecutionPlan

__all__ = [
    "PlanPipelineContext",
    "PlanPass",
    "PlanPassManager",
    "CoalesceChunksPass",
    "register_plan_pass",
    "get_plan_pass",
    "available_plan_passes",
    "build_plan_pipeline",
    "optimize_plan",
    "DEFAULT_PLAN_PASSES",
]

#: The pipeline the dispatch-bound session modes (``threads``, ``shared``)
#: run after planning unless configured otherwise.
DEFAULT_PLAN_PASSES: Tuple[str, ...] = ("coalesce",)


# --------------------------------------------------------------------------- #
# the pass protocol over plans
# --------------------------------------------------------------------------- #

@dataclass
class PlanPipelineContext:
    """Shared state of one plan-pass pipeline run.

    ``plans`` is the list the passes rewrite in place.  ``transformed``
    holds the matching transformed nests (same order), which the passes may
    consult but never modify.  ``timings`` / ``steps`` follow the analysis
    pipeline's recording protocol (:class:`~repro.core.passes.PassTiming`,
    :class:`~repro.core.report.TransformationStep`), so the core
    :class:`~repro.core.passes.PassManager` drives this context unchanged.

        >>> ctx = PlanPipelineContext(plans=[])
        >>> ctx.add_step("demo", "recorded a rewrite")
        >>> [(step.name, step.description) for step in ctx.steps]
        [('demo', 'recorded a rewrite')]
    """

    plans: List[ExecutionPlan]
    transformed: Tuple[Any, ...] = ()
    steps: List[TransformationStep] = field(default_factory=list)
    timings: List[PassTiming] = field(default_factory=list)
    finished: bool = False

    def add_step(self, name: str, description: str, matrix=None) -> None:
        if matrix is not None:
            matrix = tuple(tuple(row) for row in matrix)
        self.steps.append(TransformationStep(name, description, matrix))


class PlanPass(Pass):
    """One plan→plan rewrite.  Must preserve executed iterations and results.

    Subclasses set ``name`` and implement :meth:`run` over a
    :class:`PlanPipelineContext`; the registry instantiates them by name:

        >>> from repro.plan import get_plan_pass
        >>> isinstance(get_plan_pass("coalesce"), PlanPass)
        True
    """

    name = "plan-pass"

    def should_run(self, ctx: PlanPipelineContext) -> bool:
        return not ctx.finished and bool(ctx.plans)

    def run(self, ctx: PlanPipelineContext) -> None:
        raise NotImplementedError


class PlanPassManager(PassManager):
    """A :class:`~repro.core.passes.PassManager` over plan contexts.

    Same timing/skip semantics as the analysis manager; :meth:`optimize` is
    the one-call convenience the session uses.

        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> from repro.plan import ExecutionPlan, CoalesceChunksPass
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> manager = PlanPassManager([CoalesceChunksPass(min_chunks=2, block=4)])
        >>> ctx = manager.optimize([plan])
        >>> ctx.plans[0].chunk_count, [timing.name for timing in ctx.timings]
        (2, ['coalesce'])
    """

    def __init__(self, passes: Sequence[PlanPass], name: str = "plan-optimize"):
        super().__init__(passes, name=name)

    def optimize(
        self, plans: Sequence[ExecutionPlan], transformed: Sequence[Any] = ()
    ) -> PlanPipelineContext:
        ctx = PlanPipelineContext(plans=list(plans), transformed=tuple(transformed))
        self.run(ctx)
        return ctx


# --------------------------------------------------------------------------- #
# coalescing
# --------------------------------------------------------------------------- #

class CoalesceChunksPass(PlanPass):
    """Merge adjacent chunks into larger doall ranges.

    Two symbolic rewrites, both pure regroupings of independent chunks:

    * *label folding* — every partitioned level becomes a plain sequential
      level (scanned with step 1 over its full range), so all partition
      labels of one parallel front merge into a single chunk.  The merged
      chunk executes the labels interleaved in lexicographic order, which
      preserves each label's intra-chunk order — legal because labels on
      one front are mutually independent chunks;
    * *front blocking* — the innermost parallel level gets
      ``block=B``, merging ``B`` adjacent fronts per chunk (key component
      ``value // B``).

    Neither rewrite fires when it would shrink the schedule below
    ``min_chunks`` chunks: coalescing trades dispatch overhead against
    parallelism, and a plan that is already small has nothing to trade.

        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> from repro.plan import ExecutionPlan, PlanPassManager
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> ctx = PlanPassManager([CoalesceChunksPass(min_chunks=2, block=4)]).optimize([plan])
        >>> plan.chunk_count, ctx.plans[0].chunk_count  # 4 fronts merged per chunk
        (8, 2)
        >>> ctx.plans[0].total_iterations == plan.total_iterations
        True
    """

    name = "coalesce"

    def __init__(self, min_chunks: int = 8, block: int = 2):
        self.min_chunks = max(1, int(min_chunks))
        self.block = max(1, int(block))

    def run(self, ctx: PlanPipelineContext) -> None:
        for index, plan in enumerate(ctx.plans):
            coalesced, description = self._coalesce(plan)
            if coalesced is not plan:
                ctx.plans[index] = coalesced
                ctx.add_step(self.name, description)

    def _coalesce(self, plan: ExecutionPlan) -> Tuple[ExecutionPlan, str]:
        before = plan.chunk_count
        if before <= self.min_chunks:
            return plan, ""
        candidate = plan
        folded = False
        if candidate.partition_levels:
            attempt = self._fold_labels(candidate)
            if attempt.chunk_count >= self.min_chunks:
                candidate = attempt
                folded = True
        blocked = False
        if self.block > 1:
            attempt = self._block_front(candidate)
            if attempt is not None and attempt.chunk_count >= self.min_chunks:
                candidate = attempt
                blocked = True
        if candidate is plan:
            return plan, ""
        moves = []
        if folded:
            moves.append("folded partition labels into their fronts")
        if blocked:
            moves.append(f"blocked the innermost parallel level by {self.block}")
        return candidate, (
            f"{'; '.join(moves)}: {before} -> {candidate.chunk_count} chunk(s)"
        )

    @staticmethod
    def _fold_labels(plan: ExecutionPlan) -> ExecutionPlan:
        """Demote every partitioned level to sequential (labels merge)."""
        levels = [
            replace(level, role="sequential", stride=1, partition_pos=-1)
            if level.role == "partition"
            else level
            for level in plan.levels
        ]
        return ExecutionPlan(
            depth=plan.depth,
            levels=levels,
            parallel_levels=plan.parallel_levels,
            partition_levels=(),
            hnf=(),
            total_iterations=plan.total_iterations,
        )

    def _block_front(self, plan: ExecutionPlan) -> Optional[ExecutionPlan]:
        """Block the innermost unblocked parallel level by ``self.block``."""
        for level_index in reversed(plan.parallel_levels):
            if plan.levels[level_index].block == 1:
                break
        else:
            return None
        levels = list(plan.levels)
        levels[level_index] = replace(levels[level_index], block=self.block)
        return ExecutionPlan(
            depth=plan.depth,
            levels=levels,
            parallel_levels=plan.parallel_levels,
            partition_levels=plan.partition_levels,
            hnf=plan.hnf,
            total_iterations=plan.total_iterations,
        )


# --------------------------------------------------------------------------- #
# registry, mirroring the backend registry
# --------------------------------------------------------------------------- #

_REGISTRY: Dict[str, Callable[..., PlanPass]] = {}


def register_plan_pass(name: str, factory: Callable[..., PlanPass]) -> None:
    """Register a plan-pass factory under ``name`` (overwrites silently).

        >>> class NoOpPass(PlanPass):
        ...     name = "noop"
        ...     def run(self, ctx):
        ...         pass
        >>> register_plan_pass("noop", NoOpPass)
        >>> type(get_plan_pass("noop")).__name__
        'NoOpPass'
        >>> del _REGISTRY["noop"]  # keep the example side-effect free
    """
    _REGISTRY[str(name)] = factory


def available_plan_passes() -> Tuple[str, ...]:
    """Names of all registered plan passes, sorted.

        >>> available_plan_passes()
        ('coalesce',)
    """
    return tuple(sorted(_REGISTRY))


def get_plan_pass(name: str, **options) -> PlanPass:
    """Instantiate the plan pass registered under ``name``.

        >>> type(get_plan_pass("coalesce", min_chunks=4)).__name__
        'CoalesceChunksPass'
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise CodegenError(
            f"unknown plan pass {name!r}; available: "
            f"{', '.join(available_plan_passes())}"
        ) from None
    return factory(**options)


def build_plan_pipeline(
    names: Sequence[str] = DEFAULT_PLAN_PASSES,
) -> PlanPassManager:
    """A :class:`PlanPassManager` over the named registered passes.

        >>> manager = build_plan_pipeline(("coalesce",))
        >>> [type(plan_pass).__name__ for plan_pass in manager.passes]
        ['CoalesceChunksPass']
    """
    return PlanPassManager([get_plan_pass(name) for name in names])


def optimize_plan(
    plan: ExecutionPlan,
    transformed=None,
    passes: Sequence[str] = DEFAULT_PLAN_PASSES,
) -> Tuple[ExecutionPlan, PlanPipelineContext]:
    """Run the named pipeline over one plan; returns (optimized plan, ctx).

        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> from repro.plan import ExecutionPlan
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> optimized, ctx = optimize_plan(plan, passes=("coalesce",))
        >>> optimized.chunk_count == plan.chunk_count  # 8 chunks: min_chunks skips
        True
    """
    manager = build_plan_pipeline(passes)
    ctx = manager.optimize(
        [plan], (transformed,) if transformed is not None else ()
    )
    return ctx.plans[0], ctx


register_plan_pass("coalesce", CoalesceChunksPass)
