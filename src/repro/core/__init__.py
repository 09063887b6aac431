"""The paper's primary contribution.

* :mod:`repro.core.pdm` — the pseudo distance matrix (Section 2.3),
* :mod:`repro.core.legality` — legality of unimodular transformations
  (Lemma 2, Theorem 1, Corollaries 2-4),
* :mod:`repro.core.transforms` — elementary unimodular transformations,
* :mod:`repro.core.algorithm1` — Algorithm 1: zeroing columns of a
  non-full-rank PDM,
* :mod:`repro.core.partition` — the partitioning transformation (Theorem 2),
* :mod:`repro.core.passes` — the staged pass pipeline the method runs as,
* :mod:`repro.core.cache` — the memoizing analysis cache,
* :mod:`repro.core.pipeline` — the end-to-end parallelization method.
"""

from repro.core.pdm import PseudoDistanceMatrix
from repro.core.legality import (
    is_legal_unimodular,
    check_legal_unimodular,
    lemma2_lex_positive_combination,
)
from repro.core.transforms import (
    skewing,
    interchange,
    reversal,
    loop_permutation,
    compose,
    identity_transform,
)
from repro.core.algorithm1 import Algorithm1Result, transform_non_full_rank
from repro.core.partition import PartitioningResult, partition_full_rank
from repro.core.passes import (
    Pass,
    PassManager,
    PassTiming,
    PipelineContext,
    Algorithm1Pass,
    BuildPDMPass,
    DependenceAnalysisPass,
    FullRankPass,
    LegalityPass,
    PartitionPass,
    block_determinant,
)
from repro.core.cache import (
    AnalysisCache,
    cached_parallelize,
    default_cache,
    parallelize_many,
)
from repro.core.pipeline import (
    ParallelizationReport,
    analyze_nest,
    default_pass_manager,
    report_from_context,
)
from repro.core.report import TransformationStep

__all__ = [
    "PseudoDistanceMatrix",
    "is_legal_unimodular",
    "check_legal_unimodular",
    "lemma2_lex_positive_combination",
    "skewing",
    "interchange",
    "reversal",
    "loop_permutation",
    "compose",
    "identity_transform",
    "Algorithm1Result",
    "transform_non_full_rank",
    "PartitioningResult",
    "partition_full_rank",
    "Pass",
    "PassManager",
    "PassTiming",
    "PipelineContext",
    "Algorithm1Pass",
    "BuildPDMPass",
    "DependenceAnalysisPass",
    "FullRankPass",
    "LegalityPass",
    "PartitionPass",
    "block_determinant",
    "AnalysisCache",
    "cached_parallelize",
    "default_cache",
    "parallelize_many",
    "ParallelizationReport",
    "analyze_nest",
    "default_pass_manager",
    "report_from_context",
    "TransformationStep",
]
