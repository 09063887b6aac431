"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the analysis / transformation pipeline with a
single ``except`` clause while still being able to distinguish the individual
failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "NotUnimodularError",
    "SingularMatrixError",
    "InconsistentSystemError",
    "IllegalTransformationError",
    "LoopNestError",
    "SubscriptError",
    "BoundsError",
    "DependenceError",
    "CodegenError",
    "ExecutionError",
    "WorkloadError",
    "GatewayOverloaded",
]


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ShapeError(ReproError, ValueError):
    """A matrix or vector has an incompatible or invalid shape."""


class NotUnimodularError(ReproError, ValueError):
    """A matrix expected to be unimodular (integer, determinant ±1) is not."""


class SingularMatrixError(ReproError, ValueError):
    """A matrix expected to be nonsingular is singular."""


class InconsistentSystemError(ReproError, ValueError):
    """A linear diophantine system has no integer solution."""


class IllegalTransformationError(ReproError, ValueError):
    """A loop transformation violates the legality conditions (Theorem 1)."""


class LoopNestError(ReproError, ValueError):
    """A loop nest is malformed (not perfectly nested, bad depth, ...)."""


class SubscriptError(ReproError, ValueError):
    """An array subscript is not an affine function of the loop indices."""


class BoundsError(ReproError, ValueError):
    """Loop bounds are malformed or produce an empty/unbounded space."""


class DependenceError(ReproError, ValueError):
    """Dependence analysis failed or was queried inconsistently."""


class CodegenError(ReproError, ValueError):
    """Code generation for a (transformed) loop nest failed."""


class ExecutionError(ReproError, RuntimeError):
    """Executing a loop nest (interpreter or parallel executor) failed."""


class WorkloadError(ReproError, ValueError):
    """A workload/benchmark specification is invalid."""


class GatewayOverloaded(ReproError, RuntimeError):
    """The serving gateway rejected a job because its admission bound is full.

    Carries the gateway's queue statistics at rejection time in ``stats``
    (a :class:`~repro.gateway.GatewayStats`) and, in ``retry_after_hint``,
    the gateway's estimate in seconds of when capacity will free up —
    computed from the queue depth and the measured (EWMA) per-job service
    time, so callers can back off an informed amount instead of blindly.
    ``retry_after_hint`` is ``0.0`` when the gateway has no measurements
    yet (retry immediately is the best available guess).

        >>> try:
        ...     raise GatewayOverloaded("2 job(s) pending, bound is 2",
        ...                             retry_after_hint=0.25)
        ... except GatewayOverloaded as exc:
        ...     str(exc), exc.stats, exc.retry_after_hint
        ('2 job(s) pending, bound is 2', None, 0.25)
    """

    def __init__(self, message: str, stats=None, retry_after_hint: float = 0.0):
        super().__init__(message)
        self.stats = stats
        self.retry_after_hint = float(retry_after_hint)

