"""Native machine-code kernels for symbolic execution plans.

An :class:`~repro.plan.ExecutionPlan` carries two int64 tables: a *bound
table* with every level's role, step and integer Fourier–Motzkin bounds
(plus the HNF shifts of its partition targets), and a *key table* with one
row of ``depth`` ints per chunk.  This module emits one specialized kernel
per *(canonical program structure, inverse transform)* that takes the raw
float64 buffers of the store, the key rows of the selected chunks and the
bound table, and scans each chunk as nested native loops — evaluating each
level's bounds on the current prefix and stepping a partitioned level by
the HNF diagonal from its congruence-derived start, exactly as
:meth:`~repro.plan.ExecutionPlan.iterations_for` does — with zero
per-iteration Python overhead.  Every plan shape runs through it:
rectangular or coupled bounds, fixed or shifting partition targets, raw or
coalesced chunks.

Two engines generate the same kernel structure:

* ``numba`` — the kernel is rendered as Python source into a real module
  file under the kernel cache directory and decorated with an eagerly-typed
  ``@numba.njit(cache=True, nogil=True)``, so Numba persists the machine
  code on disk next to the module and every later process (or pool worker)
  loads instead of recompiling;
* ``cc`` — the kernel is rendered as C, compiled with the system C compiler
  (``$CC``/``cc``/``gcc``/``clang``) into a shared object named by the
  SHA-256 of the source, and loaded through :mod:`ctypes` (which releases
  the GIL for the duration of a call, like ``nogil`` kernels).

Engine selection (``REPRO_NATIVE_ENGINE`` = ``auto``/``numba``/``cc``/
``none``) prefers Numba and falls back to the C path; when neither is
available :func:`native_program_for` returns ``None`` and the caller (the
``native`` execution backend) falls back to the vectorized backend, as it
does for a plan whose tables the int64 overflow guard refuses.

Bit-exactness contract: kernels evaluate everything in IEEE double, which
matches the interpreter exactly for the supported expression subset —
``+ - * /``, unary minus, constants (integers up to 2**53), affine index
terms, float64 array reads, and the ``math``-module calls the interpreter
itself uses (libm on both sides).  Python's *error* semantics are preserved
through explicit guards compiled into the kernel: window violations,
division by zero, domain errors (``sqrt`` of a negative, ``log`` of a
non-positive, trig of an infinity) and range errors (``exp`` overflow,
``floor``/``ceil`` of non-finite values) return distinct status codes that
the backend re-raises as the exception type the interpreter would have
raised.  Anything outside the subset fails :func:`nest_is_native_supported`
and falls back.

Kernels are cached process-wide in a bounded LRU keyed by the canonical
depth and statements of the nest plus the inverse transform (alpha-renamed
programs, and one program at every problem size, share one kernel) and on
disk keyed by source hash, so warm kernels survive across :class:`Session`
runs and across pool workers: the parent's ``prepare_plan`` compile leaves
an artifact every worker merely dlopens/imports.

Every kernel source also carries a second, multithreaded entry point
(``repro_kernel_par``) that runs the parallel-for over chunks *inside* the
compiled code: the C engine uses an OpenMP ``parallel for`` when the
toolchain supports ``-fopenmp`` (probed once and negative-cached, on disk
per compiler) and otherwise a pthreads work-queue draining chunks off an
atomic counter; the numba engine uses ``@njit(parallel=True)`` with
``numba.prange``.  The driver takes the key rows and the bound table, a
thread count, a static/dynamic scheduling hint and a per-chunk status
buffer, and returns the status of the first failing chunk in chunk order —
the same first-error semantics the serial kernel and the interpreter have.
Both entry points live in one source file, so a single content-addressed
build covers serial and parallel execution.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import ExecutionError
from repro.loopnest.canonical import canonical_body_key, canonicalize
from repro.loopnest.expr import (
    ArrayAccess,
    BinaryOp,
    Call,
    Constant,
    Expression,
    IndexTerm,
    UnaryOp,
)
from repro.loopnest.nest import LoopNest
from repro.plan.ir import LEVEL_FIELDS, ROLE_CODES

__all__ = [
    "KERNEL_SYMBOL",
    "PARALLEL_KERNEL_SYMBOL",
    "NativeKernel",
    "NativeProgram",
    "available_engines",
    "clear_kernel_cache",
    "emit_kernel_source",
    "kernel_cache_info",
    "last_build_error",
    "native_cache_dir",
    "native_program_for",
    "nest_is_native_supported",
    "openmp_supported",
    "PackedChunks",
    "packed_ranges_for",
    "resolve_engine",
    "set_kernel_cache_limit",
]

KERNEL_SYMBOL = "repro_kernel"
PARALLEL_KERNEL_SYMBOL = "repro_kernel_par"
CHUNK_SYMBOL = "repro_chunk"

# The pthreads fallback driver spawns at most this many helper threads.
_MAX_PTHREADS = 64

ENGINE_ENV = "REPRO_NATIVE_ENGINE"
CACHE_DIR_ENV = "REPRO_NATIVE_CACHE"

# Kernel status codes → the exception type the interpreter would raise.
OK = 0
ERR_WINDOW = 1  # subscript outside the declared array window -> ExecutionError
ERR_ZERO_DIV = 2  # zero divisor -> ZeroDivisionError
ERR_DOMAIN = 3  # sqrt(<0), log(<=0), trig(inf), floor/ceil(nan) -> ValueError
ERR_OVERFLOW = 4  # exp overflow, floor/ceil(inf) -> OverflowError

# Beyond 2**53 an integer constant is not exactly representable in double,
# so all-double evaluation could differ from the interpreter.
_MAX_EXACT_INT = 2**53

_UNARY_CALLS = ("sin", "cos", "tan", "exp", "log", "sqrt", "abs", "floor", "ceil")

_SUPPORT_ATTR = "_repro_native_supported"
_ORDER_ATTR = "_repro_native_array_order"


# --------------------------------------------------------------------------- #
# supportedness
# --------------------------------------------------------------------------- #

def _expression_supported(expr: Expression) -> bool:
    if isinstance(expr, Constant):
        value = expr.value
        return not (isinstance(value, int) and abs(value) > _MAX_EXACT_INT)
    if isinstance(expr, (IndexTerm, ArrayAccess)):
        return True
    if isinstance(expr, BinaryOp):
        # // % and ** mix int/float semantics the all-double kernel cannot
        # reproduce exactly; they fall back to the vectorized backend.
        return (
            expr.op in ("+", "-", "*", "/")
            and _expression_supported(expr.left)
            and _expression_supported(expr.right)
        )
    if isinstance(expr, UnaryOp):
        return expr.op in ("+", "-") and _expression_supported(expr.operand)
    if isinstance(expr, Call):
        if expr.name in ("min", "max"):
            if len(expr.args) < 2:
                return False
        elif expr.name in _UNARY_CALLS:
            if len(expr.args) != 1:
                return False
        else:
            return False
        return all(_expression_supported(arg) for arg in expr.args)
    return False


def nest_is_native_supported(nest: LoopNest) -> bool:
    """Static check: can this nest's body be compiled to a native kernel?

    Memoized on the nest instance (nests are immutable after construction).
    """
    cached = getattr(nest, _SUPPORT_ATTR, None)
    if cached is not None:
        return cached
    dims: Dict[str, int] = {}
    supported = bool(nest.statements)
    for stmt in nest.statements:
        if not supported:
            break
        for access in (stmt.target, *stmt.rhs.array_accesses()):
            ndim = len(access.subscripts)
            if dims.setdefault(access.array, ndim) != ndim:
                supported = False
                break
        else:
            supported = _expression_supported(stmt.rhs)
    try:
        setattr(nest, _SUPPORT_ATTR, supported)
    except AttributeError:  # pragma: no cover - LoopNest has a __dict__ today
        pass
    return supported


def _array_slots(nest: LoopNest) -> List[Tuple[str, int]]:
    """``(array name, ndim)`` in canonical slot order (first appearance,
    written target before the reads) — the same walk canonicalization uses,
    so for a canonicalized nest slot ``k`` is exactly array ``Ak``."""
    order: List[str] = []
    dims: Dict[str, int] = {}
    for stmt in nest.statements:
        for access in (stmt.target, *stmt.rhs.array_accesses()):
            if access.array not in dims:
                order.append(access.array)
                dims[access.array] = len(access.subscripts)
    return [(name, dims[name]) for name in order]


def _original_array_order(nest: LoopNest) -> Tuple[str, ...]:
    """Original array names of ``nest`` in canonical slot order (memoized)."""
    cached = getattr(nest, _ORDER_ATTR, None)
    if cached is None:
        cached = tuple(name for name, _ in _array_slots(nest))
        try:
            setattr(nest, _ORDER_ATTR, cached)
        except AttributeError:  # pragma: no cover
            pass
    return cached


# --------------------------------------------------------------------------- #
# source emission
# --------------------------------------------------------------------------- #

class _KernelEmitter:
    """Renders one nest body as straight-line scalar code (C or Python).

    Statements are decomposed into SSA-style temporaries in the exact
    left-to-right evaluation order of the interpreter, with the error guards
    (window / zero divisor / domain / overflow) interleaved at the point the
    interpreter would raise — so on an erroneous program the kernel performs
    the same prefix of writes before reporting the error code.
    """

    def __init__(self, nest: LoopNest, lang: str):
        self.nest = nest
        self.lang = lang  # "c" or "py"
        self.ivars = {name: f"i{k}" for k, name in enumerate(nest.index_names)}
        self.slots = {name: k for k, (name, _) in enumerate(_array_slots(nest))}
        self.dims = {name: ndim for name, ndim in _array_slots(nest)}
        self.counter = 0
        self.lines: List[str] = []

    # -- small syntax helpers -------------------------------------------- #
    def fresh(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def int_lit(self, value: int) -> str:
        return f"{int(value)}LL" if self.lang == "c" else str(int(value))

    def float_lit(self, value) -> str:
        # repr() is the shortest round-trip decimal: both the Python reader
        # and C's strtod recover the identical double.
        return f"({float(value)!r})"

    def emit_int(self, expr: str) -> str:
        name = self.fresh()
        if self.lang == "c":
            self.lines.append(f"int64_t {name} = {expr};")
        else:
            self.lines.append(f"{name} = {expr}")
        return name

    def emit_double(self, expr: str) -> str:
        name = self.fresh()
        if self.lang == "c":
            self.lines.append(f"double {name} = {expr};")
        else:
            self.lines.append(f"{name} = {expr}")
        return name

    def guard(self, cond: str, code: int) -> None:
        if self.lang == "c":
            self.lines.append(f"if ({cond}) {{ return {code}; }}")
        else:
            self.lines.append(f"if {cond}: return {code}")

    def _or(self, a: str, b: str) -> str:
        return f"{a} || {b}" if self.lang == "c" else f"{a} or {b}"

    def _isinf(self, v: str) -> str:
        return f"isinf({v})" if self.lang == "c" else f"math.isinf({v})"

    def _isnan(self, v: str) -> str:
        return f"isnan({v})" if self.lang == "c" else f"math.isnan({v})"

    # -- affine / access emission ---------------------------------------- #
    def affine(self, affine) -> str:
        parts: List[str] = []
        for name, coeff in affine.terms:
            var = self.ivars[name]
            if coeff == 1:
                parts.append(var)
            elif coeff == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{self.int_lit(coeff)} * {var}")
        if affine.constant != 0 or not parts:
            parts.append(self.int_lit(affine.constant))
        return " + ".join(parts)

    def address(self, access: ArrayAccess) -> str:
        """Emit subscript evaluation + window guards; return the flat index."""
        slot = self.slots[access.array]
        ndim = self.dims[access.array]
        offsets: List[str] = []
        for k, sub in enumerate(access.subscripts):
            value = self.emit_int(self.affine(sub))
            off = self.emit_int(f"{value} - a{slot}_org[{k}]")
            self.guard(self._or(f"{off} < 0", f"{off} >= a{slot}_shp[{k}]"), ERR_WINDOW)
            offsets.append(off)
        terms = [
            off if k == ndim - 1 else f"{off} * a{slot}_s{k}"
            for k, off in enumerate(offsets)
        ]
        return self.emit_int(" + ".join(terms))

    # -- expression emission --------------------------------------------- #
    def expression(self, expr: Expression) -> str:
        if isinstance(expr, Constant):
            return self.emit_double(self.float_lit(expr.value))
        if isinstance(expr, IndexTerm):
            value = self.affine(expr.affine)
            cast = f"(double)({value})" if self.lang == "c" else f"float({value})"
            return self.emit_double(cast)
        if isinstance(expr, ArrayAccess):
            address = self.address(expr)
            return self.emit_double(f"a{self.slots[expr.array]}[{address}]")
        if isinstance(expr, UnaryOp):
            value = self.expression(expr.operand)
            return value if expr.op == "+" else self.emit_double(f"-{value}")
        if isinstance(expr, BinaryOp):
            left = self.expression(expr.left)
            right = self.expression(expr.right)
            if expr.op == "/":
                self.guard(f"{right} == 0.0", ERR_ZERO_DIV)
            return self.emit_double(f"{left} {expr.op} {right}")
        if isinstance(expr, Call):
            return self.call(expr.name, [self.expression(a) for a in expr.args])
        raise ExecutionError(  # pragma: no cover - guarded by supportedness
            f"expression node {type(expr).__name__} has no native emission"
        )

    def call(self, name: str, args: List[str]) -> str:
        c = self.lang == "c"
        if name in ("min", "max"):
            # Python's n-ary min/max keep the current value unless the next
            # strictly compares — the fold below reproduces that (including
            # first-argument retention under NaN).
            op = "<" if name == "min" else ">"
            acc = args[0]
            for nxt in args[1:]:
                acc = self.emit_double(
                    f"({nxt} {op} {acc}) ? {nxt} : {acc}"
                    if c
                    else f"{nxt} if {nxt} {op} {acc} else {acc}"
                )
            return acc
        arg = args[0]
        if name in ("sin", "cos", "tan"):
            # CPython's math.sin/cos/tan raise "math domain error" on ±inf
            # where libm would return NaN.
            self.guard(self._isinf(arg), ERR_DOMAIN)
        elif name == "sqrt":
            self.guard(f"{arg} < 0.0", ERR_DOMAIN)
        elif name == "log":
            self.guard(f"{arg} <= 0.0", ERR_DOMAIN)
        elif name in ("floor", "ceil"):
            # CPython converts the result to int: NaN -> ValueError,
            # ±inf -> OverflowError.
            self.guard(self._isnan(arg), ERR_DOMAIN)
            self.guard(self._isinf(arg), ERR_OVERFLOW)
        if name == "abs":
            rendered = f"fabs({arg})" if c else f"abs({arg})"
        elif name in ("floor", "ceil"):
            rendered = f"{name}({arg})" if c else f"float(math.{name}({arg}))"
        else:
            rendered = f"{name}({arg})" if c else f"math.{name}({arg})"
        out = self.emit_double(rendered)
        if name == "exp":
            # CPython raises OverflowError when exp overflows a finite arg.
            overflow = (
                f"isinf({out}) && !isinf({arg})"
                if c
                else f"math.isinf({out}) and not math.isinf({arg})"
            )
            self.guard(overflow, ERR_OVERFLOW)
        return out

    def statement(self, stmt) -> None:
        # Interpreter order: the rhs is fully evaluated before the target's
        # subscripts are checked, so an out-of-window *write* surfaces after
        # any rhs error.
        value = self.expression(stmt.rhs)
        address = self.address(stmt.target)
        slot = self.slots[stmt.target.array]
        tail = ";" if self.lang == "c" else ""
        self.lines.append(f"a{slot}[{address}] = {value}{tail}")


def _inverse_assignments(emitter: _KernelEmitter, inverse) -> List[str]:
    """``i_col = sum_r inv[r][col] * j_r`` — original indices from new ones."""
    depth = emitter.nest.depth
    rows = [list(map(int, row)) for row in inverse]
    lines: List[str] = []
    for col in range(depth):
        parts: List[str] = []
        for r in range(depth):
            coeff = rows[r][col]
            if coeff == 0:
                continue
            if coeff == 1:
                parts.append(f"j{r}")
            elif coeff == -1:
                parts.append(f"-j{r}")
            else:
                parts.append(f"{emitter.int_lit(coeff)} * j{r}")
        value = " + ".join(parts) if parts else emitter.int_lit(0)
        if emitter.lang == "c":
            lines.append(f"int64_t i{col} = {value};")
        else:
            lines.append(f"i{col} = {value}")
    return lines


_C_HELPERS = [
    "/* Floor and ceiling of a / d and the non-negative residue of a mod d,",
    "   for d > 0 (C's / and % truncate toward zero). */",
    "static inline int64_t repro_floor(int64_t a, int64_t d)",
    "{",
    "    if (d == 1) { return a; }",
    "    const int64_t q = a / d;",
    "    return (a % d < 0) ? q - 1 : q;",
    "}",
    "",
    "static inline int64_t repro_ceil(int64_t a, int64_t d)",
    "{",
    "    return -repro_floor(-a, d);",
    "}",
    "",
    "static inline int64_t repro_mod(int64_t a, int64_t d)",
    "{",
    "    const int64_t r = a % d;",
    "    return r < 0 ? r + d : r;",
    "}",
]


def _level_lines(level: int, depth: int, lang: str) -> List[str]:
    """One level of the chunk scan, up to and including its loop header.

    Evaluates ``max(ceil(lower))`` / ``min(floor(upper))`` of the level's
    bound-table expressions on the current prefix ``j0..j{level-1}``, then
    narrows the range the way :meth:`ExecutionPlan.iterations_for` does:
    a parallel level to its value (or block), a partitioned level to the
    values congruent to ``target = key[level] + sum(shift[u] * f_u)`` mod
    its stride.  Inside the loop, ``f{level}`` is the level's HNF factor
    (0 unless partitioned), which deeper targets read.
    """
    k = level
    header = k * (len(LEVEL_FIELDS) + depth)
    role, step, n_lower, n_upper, offset = (header + i for i in range(len(LEVEL_FIELDS)))
    shift = header + len(LEVEL_FIELDS)
    width = depth + 2
    parallel, partition = ROLE_CODES["parallel"], ROLE_CODES["partition"]
    e = f"e{k}"  # offset of the current expression in the table

    def index(i: int) -> str:
        return f"bt[{e} + {i}]" if i else f"bt[{e}]"

    acc = " + ".join([index(1)] + [f"{index(2 + t)} * j{t}" for t in range(k)])
    target = " + ".join([f"key[{k}]"] + [f"bt[{shift + u}] * f{u}" for u in range(k)])
    if lang == "c":
        lines = [
            f"int64_t {e} = bt[{offset}];",
            f"int64_t lo{k} = repro_ceil({acc}, {index(0)});",
            f"for (int64_t x = 1; x < bt[{n_lower}]; ++x) {{",
            f"    {e} += {width};",
            f"    const int64_t v = repro_ceil({acc}, {index(0)});",
            f"    if (v > lo{k}) {{ lo{k} = v; }}",
            "}",
            f"{e} += {width};",
            f"int64_t hi{k} = repro_floor({acc}, {index(0)});",
            f"for (int64_t x = 1; x < bt[{n_upper}]; ++x) {{",
            f"    {e} += {width};",
            f"    const int64_t v = repro_floor({acc}, {index(0)});",
            f"    if (v < hi{k}) {{ hi{k} = v; }}",
            "}",
            f"const int64_t rl{k} = bt[{role}];",
            f"int64_t st{k} = bt[{step}];",
            f"int64_t tg{k} = 0;",
            f"if (rl{k} == {parallel}) {{",
            f"    const int64_t base = key[{k}] * st{k};",
            f"    if (base > lo{k}) {{ lo{k} = base; }}",
            f"    if (base + st{k} - 1 < hi{k}) {{ hi{k} = base + st{k} - 1; }}",
            f"    st{k} = 1;",
            f"}} else if (rl{k} == {partition}) {{",
            f"    tg{k} = {target};",
            f"    lo{k} += repro_mod(tg{k} - lo{k}, st{k});",
            "}",
            f"for (int64_t j{k} = lo{k}; j{k} <= hi{k}; j{k} += st{k}) {{",
        ]
        if k < depth - 1:
            lines.append(
                f"    const int64_t f{k} = rl{k} == {partition} ? (j{k} - tg{k}) / st{k} : 0;"
            )
        return lines
    lines = [
        f"{e} = bt[{offset}]",
        f"lo{k} = -((-({acc})) // {index(0)})",
        f"for _ in range(1, bt[{n_lower}]):",
        f"    {e} += {width}",
        f"    v = -((-({acc})) // {index(0)})",
        f"    if v > lo{k}:",
        f"        lo{k} = v",
        f"{e} += {width}",
        f"hi{k} = ({acc}) // {index(0)}",
        f"for _ in range(1, bt[{n_upper}]):",
        f"    {e} += {width}",
        f"    v = ({acc}) // {index(0)}",
        f"    if v < hi{k}:",
        f"        hi{k} = v",
        f"rl{k} = bt[{role}]",
        f"st{k} = bt[{step}]",
        f"tg{k} = 0",
        f"if rl{k} == {parallel}:",
        f"    base = key[{k}] * st{k}",
        f"    if base > lo{k}:",
        f"        lo{k} = base",
        f"    if base + st{k} - 1 < hi{k}:",
        f"        hi{k} = base + st{k} - 1",
        f"    st{k} = 1",
        f"elif rl{k} == {partition}:",
        f"    tg{k} = {target}",
        f"    lo{k} += (tg{k} - lo{k}) % st{k}",
        f"for j{k} in range(lo{k}, hi{k} + 1, st{k}):",
    ]
    if k < depth - 1:
        lines.append(f"    f{k} = (j{k} - tg{k}) // st{k} if rl{k} == {partition} else 0")
    return lines


def emit_kernel_source(nest: LoopNest, inverse, lang: str, flavor: str = "openmp") -> str:
    """Render the chunk-loop kernel for ``nest`` in ``lang`` ("c" or "py").

    The source contains three functions:

    * ``repro_chunk(key, bt, a0, a0_org, a0_shp, ...)`` — executes one
      chunk given its key row (``depth`` ints) and the plan's bound table,
      returning a status code;
    * ``repro_kernel(n_chunks, keys, bt, a0, ...)`` — the serial driver:
      runs chunks in order, stopping at the first nonzero status;
    * ``repro_kernel_par(n_chunks, keys, bt, n_threads, dynamic_schedule,
      statuses, a0, ...)`` — the parallel driver: fills ``statuses`` (one
      slot per chunk) from ``n_threads`` threads and returns the status of
      the first failing chunk *in chunk order*, matching the serial error
      semantics exactly.

    ``keys`` is a flat int64 array of ``n_chunks * depth`` key rows and
    ``bt`` the plan's int64 bound table
    (:meth:`~repro.plan.ExecutionPlan.bound_table`).  The chunk function
    scans the chunk level by level exactly as
    :meth:`~repro.plan.ExecutionPlan.iterations_for` does: it evaluates each
    level's Fourier–Motzkin bounds on the current prefix and steps a
    partitioned level by the HNF diagonal from its congruence-derived start,
    so every plan — shifting partition targets, bounds coupled to
    sequential levels, coalesced blocks — runs through one kernel.  The
    source hard-codes only the depth, the statements and the inverse
    transform; roles, strides, bounds and sizes are all read from the
    tables at run time.  Each array contributes its raw float64 buffer plus
    int64 origin and shape vectors, in canonical slot order.

    ``flavor`` selects the C parallel driver: ``"openmp"`` emits an OpenMP
    ``parallel for`` honouring the static/dynamic hint (build with
    ``-fopenmp``); ``"pthreads"`` emits a work-queue over an atomic chunk
    cursor (build with ``-pthread``) — inherently dynamic, the scheduling
    hint is ignored.  The numba engine ignores ``flavor``.
    """
    emitter = _KernelEmitter(nest, lang)
    for stmt in nest.statements:
        emitter.statement(stmt)
    slots = _array_slots(nest)
    depth = nest.depth

    def stride_decls(indent: str) -> List[str]:
        decls: List[str] = []
        for slot, (_, ndim) in enumerate(slots):
            for k in range(ndim - 2, -1, -1):
                outer = (
                    f"a{slot}_s{k + 1} * a{slot}_shp[{k + 1}]"
                    if k + 1 < ndim - 1
                    else f"a{slot}_shp[{k + 1}]"
                )
                if lang == "c":
                    decls.append(f"{indent}int64_t a{slot}_s{k} = {outer};")
                else:
                    decls.append(f"{indent}a{slot}_s{k} = {outer}")
        return decls

    def scan_lines() -> List[str]:
        lines: List[str] = []
        for level in range(depth):
            indent = "    " * (level + 1)
            lines.extend(indent + text for text in _level_lines(level, depth, lang))
        body_indent = "    " * (depth + 1)
        lines.extend(body_indent + text for text in _inverse_assignments(emitter, inverse))
        lines.extend(body_indent + text for text in emitter.lines)
        return lines

    if lang == "c":
        if flavor not in ("openmp", "pthreads"):
            raise ExecutionError(f"unknown C parallel flavor {flavor!r}")
        params = "".join(
            f", double *a{slot}, const int64_t *a{slot}_org, const int64_t *a{slot}_shp"
            for slot in range(len(slots))
        )
        array_args = "".join(
            f", a{slot}, a{slot}_org, a{slot}_shp" for slot in range(len(slots))
        )
        lines = ["#include <math.h>", "#include <stdint.h>"]
        if flavor == "pthreads":
            lines.append("#include <pthread.h>")
        lines += [""] + _C_HELPERS + [
            "",
            f"static int64_t {CHUNK_SYMBOL}(const int64_t *key, const int64_t *bt{params})",
            "{",
        ]
        lines.extend(stride_decls("    "))
        lines.extend(scan_lines())
        lines.extend("    " * (level + 1) + "}" for level in range(depth - 1, -1, -1))
        lines += [
            "    return 0;",
            "}",
            "",
            f"int64_t {KERNEL_SYMBOL}(int64_t n_chunks, const int64_t *keys, "
            f"const int64_t *bt{params})",
            "{",
            "    for (int64_t c = 0; c < n_chunks; ++c) {",
            f"        int64_t status = {CHUNK_SYMBOL}(keys + c * {depth}, bt{array_args});",
            "        if (status != 0) { return status; }",
            "    }",
            "    return 0;",
            "}",
            "",
        ]
        par_sig = (
            f"int64_t {PARALLEL_KERNEL_SYMBOL}(int64_t n_chunks, const int64_t *keys, "
            f"const int64_t *bt, int64_t n_threads, int64_t dynamic_schedule, "
            f"int64_t *statuses{params})"
        )
        if flavor == "openmp":
            lines += [
                par_sig,
                "{",
                "    int64_t c;",
                "    int threads = (int)(n_threads < 1 ? 1 : n_threads);",
                "    if (dynamic_schedule) {",
                "        #pragma omp parallel for schedule(dynamic) num_threads(threads)",
                "        for (c = 0; c < n_chunks; ++c) {",
                f"            statuses[c] = {CHUNK_SYMBOL}(keys + c * {depth}, bt{array_args});",
                "        }",
                "    } else {",
                "        #pragma omp parallel for schedule(static) num_threads(threads)",
                "        for (c = 0; c < n_chunks; ++c) {",
                f"            statuses[c] = {CHUNK_SYMBOL}(keys + c * {depth}, bt{array_args});",
                "        }",
                "    }",
                "    for (c = 0; c < n_chunks; ++c) {",
                "        if (statuses[c] != 0) { return statuses[c]; }",
                "    }",
                "    return 0;",
                "}",
            ]
        else:
            member_decls = "".join(
                f" double *a{slot}; const int64_t *a{slot}_org; const int64_t *a{slot}_shp;"
                for slot in range(len(slots))
            )
            work_args = "".join(
                f", w->a{slot}, w->a{slot}_org, w->a{slot}_shp"
                for slot in range(len(slots))
            )
            lines += [
                "typedef struct {",
                "    int64_t n_chunks;",
                "    const int64_t *keys;",
                "    const int64_t *bt;",
                "    int64_t next;",
                f"    int64_t *statuses;{member_decls}",
                "} repro_work_t;",
                "",
                "static void *repro_worker(void *opaque)",
                "{",
                "    repro_work_t *w = (repro_work_t *)opaque;",
                "    for (;;) {",
                "        int64_t c = __sync_fetch_and_add(&w->next, 1);",
                "        if (c >= w->n_chunks) { break; }",
                f"        w->statuses[c] = {CHUNK_SYMBOL}("
                f"w->keys + c * {depth}, w->bt{work_args});",
                "    }",
                "    return 0;",
                "}",
                "",
                par_sig,
                "{",
                "    /* The shared-cursor queue is dynamic by construction; the",
                "       scheduling hint only matters to the OpenMP flavor. */",
                "    (void)dynamic_schedule;",
                f"    repro_work_t work = {{n_chunks, keys, bt, 0, statuses{array_args}}};",
                f"    pthread_t helpers[{_MAX_PTHREADS}];",
                "    int64_t spawned = 0;",
                f"    if (n_threads > {_MAX_PTHREADS}) {{ n_threads = {_MAX_PTHREADS}; }}",
                "    for (int64_t t = 1; t < n_threads; ++t) {",
                "        if (pthread_create(&helpers[spawned], 0, repro_worker, &work) != 0) {",
                "            break;",
                "        }",
                "        ++spawned;",
                "    }",
                "    repro_worker(&work);",
                "    for (int64_t t = 0; t < spawned; ++t) { pthread_join(helpers[t], 0); }",
                "    for (int64_t c = 0; c < n_chunks; ++c) {",
                "        if (statuses[c] != 0) { return statuses[c]; }",
                "    }",
                "    return 0;",
                "}",
            ]
        return "\n".join(lines) + "\n"

    params = "".join(
        f", a{slot}, a{slot}_org, a{slot}_shp" for slot in range(len(slots))
    )
    array_types = ", float64[::1], int64[::1], int64[::1]" * len(slots)
    chunk_signature = f"int64(int64[::1], int64[::1]{array_types})"
    serial_signature = f"int64(int64, int64[::1], int64[::1]{array_types})"
    parallel_signature = (
        f"int64(int64, int64[::1], int64[::1], int64, int64, int64[::1]{array_types})"
    )
    lines = [
        "import math",
        "",
        "import numba",
        "",
        "",
        f'@numba.njit("{chunk_signature}", cache=True, nogil=True)',
        f"def {CHUNK_SYMBOL}(key, bt{params}):",
    ]
    lines.extend(stride_decls("    "))
    lines.extend(scan_lines())
    lines += [
        "    return 0",
        "",
        "",
        f'@numba.njit("{serial_signature}", cache=True, nogil=True)',
        f"def {KERNEL_SYMBOL}(n_chunks, keys, bt{params}):",
        "    for c in range(n_chunks):",
        f"        b = c * {depth}",
        f"        status = {CHUNK_SYMBOL}(keys[b:b + {depth}], bt{params})",
        "        if status != 0:",
        "            return status",
        "    return 0",
        "",
        "",
        "try:",
        f'    @numba.njit("{parallel_signature}", cache=True, nogil=True, parallel=True)',
        f"    def {PARALLEL_KERNEL_SYMBOL}(n_chunks, keys, bt, n_threads, "
        f"dynamic_schedule, statuses{params}):",
        "        for c in numba.prange(n_chunks):",
        f"            b = c * {depth}",
        f"            statuses[c] = {CHUNK_SYMBOL}(keys[b:b + {depth}], bt{params})",
        "        first = 0",
        "        for c in range(n_chunks):",
        "            if first == 0:",
        "                first = statuses[c]",
        "        return first",
        "except Exception:  # pragma: no cover - toolchain without parallel support",
        f"    {PARALLEL_KERNEL_SYMBOL} = None",
    ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# engines: discovery and builds
# --------------------------------------------------------------------------- #

_UNSET = object()
_NUMBA_CACHED = _UNSET
_OPENMP_CACHED = _UNSET
_COMPILER_CACHED = _UNSET
_LAST_BUILD_ERROR: Optional[str] = None


def _numba_module():
    """The numba module, or None when unavailable (import tried once)."""
    global _NUMBA_CACHED
    if _NUMBA_CACHED is _UNSET:
        try:
            import numba  # noqa: F401
        except Exception:
            _NUMBA_CACHED = None
        else:
            _NUMBA_CACHED = numba
    return _NUMBA_CACHED


def _find_c_compiler() -> Optional[str]:
    """Path of the C compiler (``$CC``, then cc/gcc/clang), searched once."""
    global _COMPILER_CACHED
    if _COMPILER_CACHED is _UNSET:
        found = None
        for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
            found = shutil.which(candidate) if candidate else None
            if found:
                break
        _COMPILER_CACHED = found
    return _COMPILER_CACHED


_OPENMP_PROBE_SOURCE = """\
#include <omp.h>
int repro_openmp_probe(void) { return omp_get_max_threads(); }
"""


def _probe_openmp(compiler: str) -> bool:
    """Compile a tiny OpenMP program once; persist the verdict on disk.

    The marker file is keyed by the compiler path, so a toolchain lacking
    ``-fopenmp`` is negative-cached across processes and never re-probed.
    """
    directory = native_cache_dir()
    tag = hashlib.sha256(compiler.encode("utf-8")).hexdigest()[:16]
    marker = os.path.join(directory, f"openmp_probe_{tag}")
    if os.path.exists(f"{marker}.ok"):
        return True
    if os.path.exists(f"{marker}.no"):
        return False
    c_path = f"{marker}.c"
    out_path = f"{marker}.so.tmp.{os.getpid()}"
    try:
        _write_atomic(c_path, _OPENMP_PROBE_SOURCE)
        result = subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-fopenmp", "-o", out_path, c_path],
            capture_output=True,
            text=True,
            timeout=60,
        )
        supported = result.returncode == 0
    except Exception:  # pragma: no cover - compiler vanished mid-probe
        supported = False
    finally:
        if os.path.exists(out_path):
            try:
                os.remove(out_path)
            except OSError:  # pragma: no cover
                pass
    _write_atomic(f"{marker}.ok" if supported else f"{marker}.no", "")
    return supported


def openmp_supported() -> bool:
    """Whether the active C toolchain accepts ``-fopenmp`` (memoized)."""
    global _OPENMP_CACHED
    if _OPENMP_CACHED is _UNSET:
        compiler = _find_c_compiler()
        _OPENMP_CACHED = _probe_openmp(compiler) if compiler else False
    return bool(_OPENMP_CACHED)


def available_engines() -> Tuple[str, ...]:
    """Engines usable in this process, in preference order."""
    engines = []
    if _numba_module() is not None:
        engines.append("numba")
    if _find_c_compiler() is not None:
        engines.append("cc")
    return tuple(engines)


def resolve_engine(requested: Optional[str] = None) -> Optional[str]:
    """Map a requested engine (or ``$REPRO_NATIVE_ENGINE``) to a usable one.

    ``None``/"auto" prefers numba, then the C compiler; "none" disables
    native execution outright; naming an unavailable engine yields ``None``
    (the backend then falls back to vectorized execution).
    """
    request = (requested or os.environ.get(ENGINE_ENV) or "auto").strip().lower()
    if request in ("none", "off", "disabled"):
        return None
    if request == "numba":
        return "numba" if _numba_module() is not None else None
    if request == "cc":
        return "cc" if _find_c_compiler() is not None else None
    engines = available_engines()
    return engines[0] if engines else None


def last_build_error() -> Optional[str]:
    """stderr / exception text of the most recent failed kernel build."""
    return _LAST_BUILD_ERROR


def native_cache_dir() -> str:
    """On-disk kernel cache directory (``$REPRO_NATIVE_CACHE`` overrides)."""
    path = os.environ.get(CACHE_DIR_ENV)
    if not path:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        path = os.path.join(base, "repro-native")
    os.makedirs(path, exist_ok=True)
    return path


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:32]


def _write_atomic(path: str, content: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(content)
    os.replace(tmp, path)


def _build_cc(source: str, openmp: bool):
    """Compile C source to a shared object (disk-cached), load both entry
    points, and return ``(serial_fn, parallel_fn)`` — parallel may be None."""
    global _LAST_BUILD_ERROR
    compiler = _find_c_compiler()
    if compiler is None:
        return None
    directory = native_cache_dir()
    digest = _source_digest(source)
    so_path = os.path.join(directory, f"{KERNEL_SYMBOL}_{digest}.so")
    if not os.path.exists(so_path):
        c_path = os.path.join(directory, f"{KERNEL_SYMBOL}_{digest}.c")
        tmp_so = f"{so_path}.tmp.{os.getpid()}"
        thread_flag = "-fopenmp" if openmp else "-pthread"
        try:
            _write_atomic(c_path, source)
            result = subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", thread_flag, "-o", tmp_so,
                 c_path, "-lm"],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if result.returncode != 0:
                _LAST_BUILD_ERROR = result.stderr.strip() or "C compiler failed"
                return None
            # Atomic publish: concurrent builders race benignly to the same
            # content-addressed path.
            os.replace(tmp_so, so_path)
        except Exception as exc:
            _LAST_BUILD_ERROR = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            if os.path.exists(tmp_so):  # pragma: no cover - failed replace
                try:
                    os.remove(tmp_so)
                except OSError:
                    pass
    try:
        library = ctypes.CDLL(so_path)
        function = getattr(library, KERNEL_SYMBOL)
    except Exception as exc:  # pragma: no cover - corrupt cache entry
        _LAST_BUILD_ERROR = f"{type(exc).__name__}: {exc}"
        return None
    function.restype = ctypes.c_int64
    try:
        parallel = getattr(library, PARALLEL_KERNEL_SYMBOL)
    except AttributeError:  # pragma: no cover - artifact from an older build
        parallel = None
    else:
        parallel.restype = ctypes.c_int64
    return function, parallel


def _build_numba(source: str):
    """Import the numba kernel module (written to the cache dir for
    ``cache=True`` persistence); decoration compiles eagerly via the typed
    signatures, so a successful return is a pair of warm kernels
    ``(serial_fn, parallel_fn)`` — parallel is None when the toolchain
    cannot compile ``parallel=True`` (the module negative-caches that)."""
    global _LAST_BUILD_ERROR
    if _numba_module() is None:
        return None
    directory = native_cache_dir()
    digest = _source_digest(source)
    module_name = f"{KERNEL_SYMBOL}_mod_{digest}"
    module = sys.modules.get(module_name)
    if module is None:
        py_path = os.path.join(directory, f"{module_name}.py")
        try:
            if not os.path.exists(py_path):
                _write_atomic(py_path, source)
            spec = importlib.util.spec_from_file_location(module_name, py_path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[module_name] = module
        except Exception as exc:
            _LAST_BUILD_ERROR = f"{type(exc).__name__}: {exc}"
            return None
    return getattr(module, KERNEL_SYMBOL), getattr(module, PARALLEL_KERNEL_SYMBOL, None)


# --------------------------------------------------------------------------- #
# kernels and the process-wide cache
# --------------------------------------------------------------------------- #

_F64_P = ctypes.POINTER(ctypes.c_double)
_I64_P = ctypes.POINTER(ctypes.c_int64)


class PackedChunks(NamedTuple):
    """What one kernel call reads: ``n_chunks`` key rows, flattened into
    ``keys`` (C-contiguous int64, ``n_chunks * depth``), and the plan's
    int64 bound table ``bounds``."""

    n_chunks: int
    keys: np.ndarray
    bounds: np.ndarray


def packed_ranges_for(plan, chunk_indices=None) -> Optional[PackedChunks]:
    """The kernel input for a plan selection, gathered from the plan's tables.

    The plan builds its key table and bound table once and caches them
    (plans pickle through ``_SPEC_FIELDS``, so the tables never cross a
    process boundary).  The whole-plan selection — what the in-kernel
    driver and the gateway run — is a flat view of the key table, and a
    group selection is a row gather from it on each call, so no bound is
    evaluated here and a selection never grows the plan.  Returns ``None``
    when the plan has no tables (the int64 overflow guard refused it); the
    caller falls back.
    """
    keys = plan.key_table()
    if keys is None:
        return None
    if chunk_indices is not None:
        keys = keys[np.asarray(list(chunk_indices), dtype=np.intp)]
    return PackedChunks(int(keys.shape[0]), keys.reshape(-1), plan.bound_table())


class NativeKernel:
    """One compiled kernel: engine-specific callables + marshalling.

    ``flavor`` names the parallel driver baked into the artifact:
    ``"openmp"``/``"pthreads"`` for the C engine, ``"prange"`` for numba,
    ``None`` when the build produced no parallel entry point.
    """

    __slots__ = (
        "engine",
        "depth",
        "array_dims",
        "source",
        "compile_seconds",
        "flavor",
        "_fn",
        "_par_fn",
    )

    def __init__(self, engine, fn, depth, array_dims, source, compile_seconds,
                 par_fn=None, flavor=None):
        self.engine = engine
        self.depth = depth
        self.array_dims = tuple(array_dims)
        self.source = source
        self.compile_seconds = compile_seconds
        self.flavor = flavor if par_fn is not None else None
        self._fn = fn
        self._par_fn = par_fn
        if engine == "cc":
            array_types = []
            for _ in self.array_dims:
                array_types.extend((_F64_P, _I64_P, _I64_P))
            fn.argtypes = [ctypes.c_int64, _I64_P, _I64_P] + array_types
            if par_fn is not None:
                par_fn.argtypes = [
                    ctypes.c_int64, _I64_P, _I64_P, ctypes.c_int64, ctypes.c_int64, _I64_P,
                ] + array_types

    @property
    def supports_parallel(self) -> bool:
        """Whether this kernel carries a usable parallel driver."""
        return self._par_fn is not None

    def _marshal(self, offset_arrays, packed: PackedChunks):
        """``(datas, origins, shapes)`` or None when a layout cannot be
        passed to native code (caller falls back)."""
        n_chunks, keys, bounds = packed
        for table in (keys, bounds):
            if table.dtype != np.int64 or table.ndim != 1 or not table.flags["C_CONTIGUOUS"]:
                return None
        if (
            keys.size != n_chunks * self.depth
            or bounds.size < self.depth * (len(LEVEL_FIELDS) + self.depth)
        ):
            return None
        datas = []
        origins = []
        shapes = []
        for array, ndim in zip(offset_arrays, self.array_dims):
            data = array.data
            if (
                data.dtype != np.float64
                or data.ndim != ndim
                or not data.flags["C_CONTIGUOUS"]
            ):
                return None
            datas.append(data)
            origins.append(np.asarray(array.origin, dtype=np.int64))
            shapes.append(np.asarray(data.shape, dtype=np.int64))
        return datas, origins, shapes

    def _cc_array_args(self, marshalled):
        args = []
        for data, origin, shape in zip(*marshalled):
            args.append(data.ctypes.data_as(_F64_P))
            args.append(origin.ctypes.data_as(_I64_P))
            args.append(shape.ctypes.data_as(_I64_P))
        return args

    def _numba_array_args(self, marshalled):
        args = []
        for data, origin, shape in zip(*marshalled):
            args.extend((data.reshape(-1), origin, shape))
        return args

    def execute(self, offset_arrays, packed: PackedChunks) -> Optional[int]:
        """Run the serial kernel; returns the status code, or None when an
        array's layout cannot be marshalled (caller falls back)."""
        marshalled = self._marshal(offset_arrays, packed)
        if marshalled is None:
            return None
        n_chunks, keys, bounds = packed
        if self.engine == "cc":
            args = [
                ctypes.c_int64(n_chunks),
                keys.ctypes.data_as(_I64_P),
                bounds.ctypes.data_as(_I64_P),
            ]
            args.extend(self._cc_array_args(marshalled))
            return int(self._fn(*args))
        return int(self._fn(n_chunks, keys, bounds, *self._numba_array_args(marshalled)))

    def execute_parallel(
        self,
        offset_arrays,
        packed: PackedChunks,
        threads: int,
        dynamic: bool,
    ) -> Optional[int]:
        """Run the multithreaded driver; returns the first failing chunk's
        status code (in chunk order), or None when the kernel has no
        parallel entry point or marshalling fails — no writes have happened
        in that case, so the caller can fall back safely."""
        if self._par_fn is None:
            return None
        marshalled = self._marshal(offset_arrays, packed)
        if marshalled is None:
            return None
        threads = max(1, int(threads))
        n_chunks, keys, bounds = packed
        statuses = np.zeros(max(1, n_chunks), dtype=np.int64)
        if self.engine == "cc":
            args = [
                ctypes.c_int64(n_chunks),
                keys.ctypes.data_as(_I64_P),
                bounds.ctypes.data_as(_I64_P),
                ctypes.c_int64(threads),
                ctypes.c_int64(1 if dynamic else 0),
                statuses.ctypes.data_as(_I64_P),
            ]
            args.extend(self._cc_array_args(marshalled))
            return int(self._par_fn(*args))
        numba = _numba_module()
        previous = None
        if numba is not None:
            # prange honours the numba thread pool size, set per call and
            # restored after (capped at the pool's launch-time size).
            try:
                previous = numba.get_num_threads()
                numba.set_num_threads(min(threads, numba.config.NUMBA_NUM_THREADS))
            except Exception:  # pragma: no cover - very old numba
                previous = None
        try:
            return int(
                self._par_fn(
                    n_chunks,
                    keys,
                    bounds,
                    threads,
                    1 if dynamic else 0,
                    statuses,
                    *self._numba_array_args(marshalled),
                )
            )
        finally:
            if previous is not None:
                numba.set_num_threads(previous)


class NativeProgram:
    """A cached kernel bound to one nest's original array names."""

    __slots__ = ("kernel", "array_order")

    def __init__(self, kernel: NativeKernel, array_order: Tuple[str, ...]):
        self.kernel = kernel
        self.array_order = array_order

    def _arrays(self, store):
        arrays = []
        for name in self.array_order:
            if name not in store:
                # Let the fallback backend raise its usual missing-array error.
                return None
            arrays.append(store[name])
        return arrays

    def execute(self, store, packed: PackedChunks) -> Optional[int]:
        arrays = self._arrays(store)
        if arrays is None:
            return None
        return self.kernel.execute(arrays, packed)

    def execute_parallel(
        self, store, packed: PackedChunks, threads: int, dynamic: bool
    ) -> Optional[int]:
        arrays = self._arrays(store)
        if arrays is None:
            return None
        return self.kernel.execute_parallel(arrays, packed, threads, dynamic)


_LOCK = threading.Lock()
_KERNELS: "OrderedDict[tuple, Optional[NativeKernel]]" = OrderedDict()
_KERNEL_CACHE_LIMIT = 64
_STATS = {"hits": 0, "misses": 0, "evictions": 0, "builds": 0, "build_seconds": 0.0}


def set_kernel_cache_limit(limit: int) -> None:
    """Resize the process-wide kernel LRU (evicts immediately if needed)."""
    global _KERNEL_CACHE_LIMIT
    with _LOCK:
        _KERNEL_CACHE_LIMIT = max(1, int(limit))
        while len(_KERNELS) > _KERNEL_CACHE_LIMIT:
            _KERNELS.popitem(last=False)
            _STATS["evictions"] += 1


def kernel_cache_info() -> Dict[str, object]:
    with _LOCK:
        return {"size": len(_KERNELS), "limit": _KERNEL_CACHE_LIMIT, **_STATS}


def clear_kernel_cache() -> None:
    """Drop cached kernels, stats and the memoized toolchain probes."""
    global _NUMBA_CACHED, _OPENMP_CACHED, _COMPILER_CACHED, _LAST_BUILD_ERROR
    with _LOCK:
        _KERNELS.clear()
        for key in _STATS:
            _STATS[key] = 0.0 if key == "build_seconds" else 0
        _NUMBA_CACHED = _UNSET
        _OPENMP_CACHED = _UNSET
        _COMPILER_CACHED = _UNSET
        _LAST_BUILD_ERROR = None


def native_program_for(transformed, engine: Optional[str] = None) -> Optional[NativeProgram]:
    """The native program of a transformed nest, or None (caller falls back).

    Kernels are shared across alpha-equivalent programs: the cache key is
    the engine, the canonical depth and statements of the nest and the
    inverse transform — everything the emitted source reads.  The loop
    bounds are not part of it (the plan's tables carry them at run time), so
    one program at several problem sizes, or two sessions running renamed
    copies of it, compile exactly once per process (and, through the
    on-disk artifact, roughly once per machine).
    """
    resolved = resolve_engine(engine)
    if resolved is None:
        return None
    nest = transformed.nest
    if not nest_is_native_supported(nest):
        return None
    inverse = tuple(
        tuple(int(value) for value in row) for row in transformed.inverse_transform
    )
    key = (resolved, canonical_body_key(nest), inverse)
    with _LOCK:
        if key in _KERNELS:
            _KERNELS.move_to_end(key)
            _STATS["hits"] += 1
            kernel = _KERNELS[key]
            if kernel is None:
                return None
            return NativeProgram(kernel, _original_array_order(nest))
        _STATS["misses"] += 1
        started = time.perf_counter()
        form = canonicalize(nest)
        if resolved == "cc":
            flavor = "openmp" if openmp_supported() else "pthreads"
            source = emit_kernel_source(form.nest, inverse, "c", flavor)
            built = _build_cc(source, openmp=flavor == "openmp")
        else:
            flavor = "prange"
            source = emit_kernel_source(form.nest, inverse, "py")
            built = _build_numba(source)
        elapsed = time.perf_counter() - started
        kernel = None
        if built is not None:
            function, parallel_fn = built
            dims = tuple(ndim for _, ndim in _array_slots(form.nest))
            kernel = NativeKernel(
                resolved, function, nest.depth, dims, source, elapsed,
                par_fn=parallel_fn, flavor=flavor,
            )
            _STATS["builds"] += 1
            _STATS["build_seconds"] += elapsed
        # Build failures are cached too (as None) so a broken toolchain does
        # not re-invoke the compiler on every run.
        _KERNELS[key] = kernel
        while len(_KERNELS) > _KERNEL_CACHE_LIMIT:
            _KERNELS.popitem(last=False)
            _STATS["evictions"] += 1
    if kernel is None:
        return None
    return NativeProgram(kernel, _original_array_order(nest))
