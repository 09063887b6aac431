"""End-to-end verification that a transformation preserves program semantics.

Legality proofs (Theorem 1, Theorem 2) are checked symbolically in
:mod:`repro.core.legality`; this module performs the complementary *dynamic*
check: execute the original nest and the transformed nest (in several
traversal orders, optionally also through the emitted Python source and the
parallel executors) on identical initial data and compare the final array
contents exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.codegen.python_emitter import compile_loop_function, emit_transformed_source
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import ParallelizationReport
from repro.loopnest.nest import LoopNest
from repro.runtime.arrays import ArrayStore, store_for_nest
from repro.runtime.backends import get_backend
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest, execute_transformed

__all__ = ["VerificationReport", "verify_transformation"]


@dataclass
class VerificationReport:
    """Result of comparing transformed executions against the original."""

    nest_name: str
    passed: bool
    checks: Dict[str, float] = field(default_factory=dict)
    """Mapping from check name to the maximum absolute difference observed."""
    tolerance: float = 1e-9

    def describe(self) -> str:
        lines = [f"Verification of {self.nest_name!r}: {'PASS' if self.passed else 'FAIL'}"]
        for name, diff in sorted(self.checks.items()):
            status = "ok" if diff <= self.tolerance else "MISMATCH"
            lines.append(f"  {name}: max |difference| = {diff:.3e} ({status})")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def verify_transformation(
    nest: LoopNest,
    transformed: Union[TransformedLoopNest, ParallelizationReport],
    store: Optional[ArrayStore] = None,
    check_emitted_code: bool = True,
    check_executors: Sequence[str] = ("serial", "native-parallel"),
    check_backends: Sequence[str] = ("compiled", "vectorized"),
    tolerance: float = 1e-9,
    initializer: str = "index_sum",
) -> VerificationReport:
    """Execute original vs. transformed loop and compare the results.

    Parameters
    ----------
    nest:
        The original loop nest.
    transformed:
        Either a :class:`TransformedLoopNest` or the
        :class:`ParallelizationReport` produced by ``analyze_nest``.
    store:
        Initial array contents; generated with ``store_for_nest`` when omitted.
    check_emitted_code:
        Also compile the emitted Python source of the transformed loop and run it.
    check_executors:
        Executor modes to exercise (any subset of ``EXECUTION_MODES``), each
        on the native backend: ``native-parallel`` runs the chunks on
        concurrent in-kernel threads.  Without a native engine the backend
        runs vectorized, which is still a correctness check.
    check_backends:
        Execution backends to run against the interpreter reference (any
        subset of :func:`repro.runtime.backends.available_backends`).
    """
    if isinstance(transformed, ParallelizationReport):
        transformed = TransformedLoopNest.from_report(transformed)

    if store is None:
        store = store_for_nest(nest, initializer=initializer)

    reference = store.copy()
    execute_nest(nest, reference)

    checks: Dict[str, float] = {}

    lexicographic = store.copy()
    execute_transformed(transformed, lexicographic, order="lexicographic")
    checks["transformed/lexicographic"] = reference.max_abs_difference(lexicographic)

    chunked = store.copy()
    execute_transformed(transformed, chunked, order="chunks")
    checks["transformed/chunk-order"] = reference.max_abs_difference(chunked)

    if check_emitted_code:
        source = emit_transformed_source(transformed, function_name="run_transformed")
        function = compile_loop_function(source, "run_transformed")
        emitted = store.copy()
        function(emitted)
        checks["transformed/emitted-code"] = reference.max_abs_difference(emitted)

    # One symbolic plan serves every executor mode and backend below; no
    # materialized schedule is ever built for verification.
    plan = transformed.execution_plan()
    for mode in check_executors:
        executed = store.copy()
        with ParallelExecutor(mode=mode, workers=4, backend="native") as executor:
            executor.run(transformed, executed, plan=plan)
        checks[f"executor/{mode}"] = reference.max_abs_difference(executed)

    for backend_name in check_backends:
        backend = get_backend(backend_name)
        executed = store.copy()
        backend.execute_plan(transformed, plan, executed)
        checks[f"backend/{backend_name}"] = reference.max_abs_difference(executed)

    passed = all(diff <= tolerance for diff in checks.values())
    return VerificationReport(nest_name=nest.name, passed=passed, checks=checks, tolerance=tolerance)
