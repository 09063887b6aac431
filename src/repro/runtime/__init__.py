"""Execution substrate.

The paper's method is evaluated on a Fortran compiler / shared-memory
machine; the reproduction executes loop nests directly:

* :mod:`repro.runtime.arrays` — NumPy-backed array stores with arbitrary
  (possibly negative) index origins,
* :mod:`repro.runtime.interpreter` — sequential execution of original and
  transformed nests,
* :mod:`repro.runtime.backends` — pluggable execution backends (AST
  interpreter, ``compile()``d loop bodies, NumPy-vectorized rounds) behind a
  registry; every backend is differential-tested against the interpreter,
* :mod:`repro.runtime.shared` — zero-copy array stores backed by
  ``multiprocessing.shared_memory`` segments,
* :mod:`repro.runtime.pool` — a persistent worker pool whose long-lived
  processes attach to the shared segments once and execute chunks in place,
* :mod:`repro.runtime.executor` — chunk-parallel execution (serial, the
  shared-memory pool or the in-kernel native driver) through a selectable
  backend,
* :mod:`repro.runtime.telemetry` — measured per-chunk-group wall clock per
  canonical program (EWMA) from ``shared`` runs, feeding the executor's
  balanced-group scheduling,
* :mod:`repro.runtime.simulator` — idealized parallel-machine model
  (work / critical path) that is independent of the CPython GIL,
* :mod:`repro.runtime.verification` — checking that a transformation
  preserves the program's results.
"""

from repro.runtime.arrays import OffsetArray, ArrayStore, store_for_nest
from repro.runtime.interpreter import (
    execute_nest,
    execute_transformed,
    execute_chunk,
)
from repro.runtime.backends import (
    ExecutionBackend,
    InterpreterBackend,
    CompiledBackend,
    VectorizedBackend,
    register_backend,
    get_backend,
    resolve_backend,
    available_backends,
    DEFAULT_BACKEND,
)
from repro.runtime.executor import EXECUTION_MODES, ParallelExecutor, ExecutionResult
from repro.runtime.shared import (
    SharedArraySpec,
    SharedStoreSpec,
    SharedArrayStore,
    share_ndarray,
    attach_ndarray,
)
from repro.runtime.pool import WorkerCrashed, WorkerPool
from repro.runtime.telemetry import ExecutionTelemetry
from repro.runtime.simulator import SimulatedMachine, simulate_schedule, SimulationResult
from repro.runtime.verification import verify_transformation, VerificationReport

__all__ = [
    "OffsetArray",
    "ArrayStore",
    "store_for_nest",
    "execute_nest",
    "execute_transformed",
    "execute_chunk",
    "ExecutionBackend",
    "InterpreterBackend",
    "CompiledBackend",
    "VectorizedBackend",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "available_backends",
    "DEFAULT_BACKEND",
    "EXECUTION_MODES",
    "ParallelExecutor",
    "ExecutionResult",
    "SharedArraySpec",
    "SharedStoreSpec",
    "SharedArrayStore",
    "share_ndarray",
    "attach_ndarray",
    "WorkerCrashed",
    "WorkerPool",
    "ExecutionTelemetry",
    "SimulatedMachine",
    "simulate_schedule",
    "SimulationResult",
    "verify_transformation",
    "VerificationReport",
]
