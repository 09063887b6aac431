"""Code generation for transformed loop nests.

* :mod:`repro.codegen.transformed_nest` — the transformed iteration space
  (new indices, Fourier–Motzkin bounds, mapping back to original indices),
* :mod:`repro.codegen.schedule` — grouping iterations into independent
  chunks (doall loop values × partition labels),
* :mod:`repro.codegen.python_emitter` — emission of runnable Python source
  for the original and the transformed loop,
* :mod:`repro.codegen.native` — compilation of plans to machine-code
  kernels (C via the system compiler, loaded through ctypes) for the
  native execution backend; its toolchain probing stays lazy, so it is not
  re-exported here.
"""

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.codegen.schedule import (
    Chunk,
    build_schedule,
    build_schedule_by_enumeration,
    schedule_statistics,
)
from repro.codegen.python_emitter import (
    emit_original_source,
    emit_transformed_source,
    compile_loop_function,
)

__all__ = [
    "TransformedLoopNest",
    "Chunk",
    "build_schedule",
    "build_schedule_by_enumeration",
    "schedule_statistics",
    "emit_original_source",
    "emit_transformed_source",
    "compile_loop_function",
]
