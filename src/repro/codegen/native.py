"""Native machine-code kernels for symbolic execution plans.

An :class:`~repro.plan.ExecutionPlan` carries two int64 tables: a *bound
table* with every level's role, step and integer Fourier–Motzkin bounds
(plus the HNF shifts of its partition targets), and a *key table* with one
row of ``depth`` ints per chunk.  Only the statement body differs between
programs, so a *kernel* is the innermost loop of one body and nothing
else: ``repro_run(j, lo, hi, step, arrays)`` (:func:`emit_kernel_source`)
runs the inverse transform, the guards and the statements for one
innermost range of new-space values, on the store's raw float64 buffers,
and returns the first nonzero status.  One kernel is built per
*(canonical program structure, inverse transform)*.

Everything that walks a plan lives in one small library per loop depth
(:func:`walker_source`), built by the first kernel of that depth and
cached in memory and on disk like the kernels: ``repro_walk`` scans each
chunk of a list of key rows level by level — evaluating each level's
bounds on the current prefix and stepping a partitioned level by the HNF
diagonal from its congruence-derived start, exactly as
:meth:`~repro.plan.ExecutionPlan.iterations_for` does — and hands each
innermost range to the kernel, and ``repro_drive`` is the in-kernel
parallel driver.  Every plan shape runs through them: rectangular or
coupled bounds, fixed or shifting partition targets, raw or coalesced
chunks.  Each kernel build then compiles only its body, about 40% of what
a kernel with its own walker and drivers took.

A serial run of a whole plan passes no key rows: the chunk scan
``repro_scan`` finds the chunks from the bound table in the key table's
order, a C transcription of :meth:`~repro.plan.ExecutionPlan._discover`,
and runs them as it finds them, in batches of key rows, through the
walker, so a cold request builds no key table.  The scan reads nothing of
the program or its depth, so it is one shared library
(:func:`scan_source`).  Selections by chunk index (the driver's ranges,
the groups of ``shared`` and the gateway) and the one plan shape the scan
cannot deduplicate (:meth:`~repro.plan.ExecutionPlan.scan_stamps`) pass
key rows.

Sources are rendered as C, compiled with the system C compiler
(``$CC``/``cc``/``gcc``/``clang``) into shared objects named by the
SHA-256 of the source, and loaded through :mod:`ctypes`, which releases
the GIL for the duration of a call.  ``REPRO_NATIVE_ENGINE`` is the off
switch: unset, ``auto`` or ``cc`` uses the compiler, and any other value
(``none``, ``off``, ``disabled``, or a misspelled name) turns native
execution off.  Without an engine, or when a build fails (a compiler
error in the kernel or its depth's walker, an unusable cache directory),
:func:`native_program_for` returns ``None`` and the caller (the
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
an artifact every worker merely dlopens.

The parallel driver ``repro_drive`` takes the key rows, the bound table
and the boundaries of contiguous chunk ranges, and walks each range on its
own OS thread: an OpenMP ``parallel for`` over the ranges when the
toolchain supports ``-fopenmp`` (probed once and negative-cached, on disk
per compiler), otherwise one pthreads helper per range after the first.
It returns the first nonzero range status in range order; ranges are
ordered, so that is the status of the first failing chunk in chunk order —
the same first-error semantics the serial walk and the interpreter have.
Unless the caller set ``OMP_WAIT_POLICY``, it is set to ``PASSIVE`` before
the first OpenMP walker loads: libgomp reads it once, and its default
spin-waiting made warm driver runs several times slower than serial on a
busy 2-vCPU host.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
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
    "NativeKernel",
    "NativeProgram",
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
    "scan_source",
    "set_kernel_cache_limit",
    "walker_source",
]

KERNEL_SYMBOL = "repro_run"
WALK_SYMBOL = "repro_walk"
DRIVER_SYMBOL = "repro_drive"
SCAN_SYMBOL = "repro_scan"

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

#: Most key rows the chunk scan hands the kernel in one call.
_SCAN_BATCH = 256

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
    cached = nest.__dict__.get(_SUPPORT_ATTR)
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
    nest.__dict__[_SUPPORT_ATTR] = supported
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
    cached = nest.__dict__.get(_ORDER_ATTR)
    if cached is None:
        cached = nest.__dict__[_ORDER_ATTR] = tuple(name for name, _ in _array_slots(nest))
    return cached


# --------------------------------------------------------------------------- #
# source emission
# --------------------------------------------------------------------------- #

def _int_lit(value: int) -> str:
    return f"{int(value)}LL"


class _KernelEmitter:
    """Renders one nest body as straight-line scalar C.

    Statements are decomposed into SSA-style temporaries in the exact
    left-to-right evaluation order of the interpreter, with the error guards
    (window / zero divisor / domain / overflow) interleaved at the point the
    interpreter would raise — so on an erroneous program the kernel performs
    the same prefix of writes before reporting the error code.
    """

    def __init__(self, nest: LoopNest):
        self.nest = nest
        self.ivars = {name: f"i{k}" for k, name in enumerate(nest.index_names)}
        self.slots = {name: k for k, (name, _) in enumerate(_array_slots(nest))}
        self.dims = {name: ndim for name, ndim in _array_slots(nest)}
        self.counter = 0
        self.lines: List[str] = []

    # -- small syntax helpers -------------------------------------------- #
    def fresh(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def float_lit(self, value) -> str:
        # repr() is the shortest round-trip decimal: C's strtod recovers the
        # identical double.
        return f"({float(value)!r})"

    def emit_int(self, expr: str) -> str:
        name = self.fresh()
        self.lines.append(f"int64_t {name} = {expr};")
        return name

    def emit_double(self, expr: str) -> str:
        name = self.fresh()
        self.lines.append(f"double {name} = {expr};")
        return name

    def guard(self, cond: str, code: int) -> None:
        self.lines.append(f"if ({cond}) {{ return {code}; }}")

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
                parts.append(f"{_int_lit(coeff)} * {var}")
        if affine.constant != 0 or not parts:
            parts.append(_int_lit(affine.constant))
        return " + ".join(parts)

    def address(self, access: ArrayAccess) -> str:
        """Emit subscript evaluation + window guards; return the flat index."""
        slot = self.slots[access.array]
        ndim = self.dims[access.array]
        offsets: List[str] = []
        for k, sub in enumerate(access.subscripts):
            value = self.emit_int(self.affine(sub))
            off = self.emit_int(f"{value} - a{slot}_org[{k}]")
            self.guard(f"{off} < 0 || {off} >= a{slot}_shp[{k}]", ERR_WINDOW)
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
            return self.emit_double(f"(double)({self.affine(expr.affine)})")
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
        if name in ("min", "max"):
            # Python's n-ary min/max keep the current value unless the next
            # strictly compares — the fold below reproduces that (including
            # first-argument retention under NaN).
            op = "<" if name == "min" else ">"
            acc = args[0]
            for nxt in args[1:]:
                acc = self.emit_double(f"({nxt} {op} {acc}) ? {nxt} : {acc}")
            return acc
        arg = args[0]
        if name in ("sin", "cos", "tan"):
            # CPython's math.sin/cos/tan raise "math domain error" on ±inf
            # where libm would return NaN.
            self.guard(f"isinf({arg})", ERR_DOMAIN)
        elif name == "sqrt":
            self.guard(f"{arg} < 0.0", ERR_DOMAIN)
        elif name == "log":
            self.guard(f"{arg} <= 0.0", ERR_DOMAIN)
        elif name in ("floor", "ceil"):
            # CPython converts the result to int: NaN -> ValueError,
            # ±inf -> OverflowError.
            self.guard(f"isnan({arg})", ERR_DOMAIN)
            self.guard(f"isinf({arg})", ERR_OVERFLOW)
        out = self.emit_double(f"{'fabs' if name == 'abs' else name}({arg})")
        if name == "exp":
            # CPython raises OverflowError when exp overflows a finite arg.
            self.guard(f"isinf({out}) && !isinf({arg})", ERR_OVERFLOW)
        return out

    def statement(self, stmt) -> None:
        # Interpreter order: the rhs is fully evaluated before the target's
        # subscripts are checked, so an out-of-window *write* surfaces after
        # any rhs error.
        value = self.expression(stmt.rhs)
        address = self.address(stmt.target)
        slot = self.slots[stmt.target.array]
        self.lines.append(f"a{slot}[{address}] = {value};")


def _inverse_assignments(depth: int, inverse) -> List[str]:
    """``i_col = sum_r inv[r][col] * j_r`` — original indices from new ones."""
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
                parts.append(f"{_int_lit(coeff)} * j{r}")
        value = " + ".join(parts) if parts else _int_lit(0)
        lines.append(f"int64_t i{col} = {value};")
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
    "    if ((uint64_t)a < (uint64_t)d) { return a; }",
    "    const int64_t r = a % d;",
    "    return r < 0 ? r + d : r;",
    "}",
]


_RUN_TYPEDEF = (
    "typedef int64_t (*repro_run_fn)(const int64_t *j, int64_t lo, int64_t hi, int64_t step,\n"
    "                                void *const *arrays);"
)


def _level_lines(level: int, depth: int) -> List[str]:
    """One level of a chunk's walk: its range, then the loop over it.

    Evaluates ``max(ceil(lower))`` / ``min(floor(upper))`` of the level's
    bound-table expressions on the current prefix ``j0..j{level-1}``, then
    narrows the range the way :meth:`ExecutionPlan.iterations_for` does:
    a parallel level to its value (or block), a partitioned level to the
    values congruent to ``target = key[level] + sum(shift[u] * f_u)`` mod
    its stride.  Inside an outer level's loop, ``jv[level]`` is its value
    and ``f{level}`` its HNF factor (0 unless partitioned), which deeper
    targets read.  The innermost level has no loop: it hands its range, if
    not empty, to the kernel ``run`` and returns a nonzero status.
    """
    k = level
    header = k * (len(LEVEL_FIELDS) + depth)
    role, step, n_lower, n_upper, offset = (
        header + LEVEL_FIELDS.index(name)
        for name in ("role", "step", "n_lower", "n_upper", "offset")
    )
    shift = header + len(LEVEL_FIELDS)
    width = depth + 2
    parallel, partition = ROLE_CODES["parallel"], ROLE_CODES["partition"]
    e = f"e{k}"  # offset of the current expression in the table

    def index(i: int) -> str:
        return f"bt[{e} + {i}]" if i else f"bt[{e}]"

    acc = " + ".join([index(1)] + [f"{index(2 + t)} * j{t}" for t in range(k)])
    target = " + ".join([f"key[{k}]"] + [f"bt[{shift + u}] * f{u}" for u in range(k)])
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
    ]
    if k == depth - 1:
        return lines + [
            f"if (lo{k} <= hi{k}) {{",
            f"    const int64_t status = run(jv, lo{k}, hi{k}, st{k}, arrays);",
            "    if (status != 0) { return status; }",
            "}",
        ]
    # f{k} steps with j{k}: one division per range, not one per value.
    return lines + [
        f"const int64_t df{k} = rl{k} == {partition};",
        f"for (int64_t j{k} = lo{k}, f{k} = df{k} ? (lo{k} - tg{k}) / st{k} : 0; j{k} <= hi{k};",
        f"     j{k} += st{k}, f{k} += df{k}) {{",
        f"    jv[{k}] = j{k};",
    ]


def scan_source() -> str:
    """The C source of ``repro_scan``, the chunk scan every kernel shares.

    ``repro_scan(depth, bt, stamps, found, walk, run, arrays)`` is a C
    transcription of :meth:`~repro.plan.ExecutionPlan._discover` over the
    bound table ``bt``: it finds the chunks of the plan in first-appearance
    order and runs them as it finds them, handing each batch of up to
    :data:`_SCAN_BATCH` key rows to ``walk(n, keys, bt, run, arrays)`` —
    the ``repro_walk`` of the plan's depth, which walks them in order
    through the kernel ``run`` and stops at the first nonzero status.  The
    scan returns that status and stops, so the chunks that run, and the
    writes a failing run leaves, are the serial walk's; ``*found`` is the
    number of chunks found.  The scan reads nothing of the program or its
    depth, so one library serves every kernel and builds once; batching
    keeps the walk's level loops inlined, as the key-table path runs them.
    Without sweeps, the innermost level appends every value it visits as a
    chunk in one tight loop.

    It is one loop over the current level ``k``.  Entering a level
    evaluates its bounds on the prefix ``j[0..k-1]`` and narrows the range
    of an invariant level to its representatives: the block starts of a
    blocked parallel level, the first ``stride`` values of a partitioned
    one, the lower bound of a sequential one.  An unblocked parallel level
    takes every value, and any other level sweeps its range.  ``key[k]`` is
    the level's key component: the block index of a parallel value, the
    label residue ``r - g * stride`` of a partitioned one with ``r = j -
    sum(shift[u] * g_u)`` and HNF factor ``g = floor(r / stride)`` (the row
    reduction of ``_label_of``), and 0 for a sequential level.

    Dedupe: each visit of a swept level (its first value and, for a blocked
    level, every block start, as keys of different blocks never meet)
    takes a new stamp, and owns ``labels`` stamps — one per partition
    label, in mixed radix — at ``stamps + slot * labels``; ``stamps`` holds
    :meth:`~repro.plan.ExecutionPlan.scan_stamps` zeroed int64s.  A leaf's
    key is new when no swept level on its path has stamped it in its
    current visit, checked from the innermost swept level out: a key an
    inner visit has seen was passed up to every outer visit, so the first
    stamp found ends the check.
    """
    field = {name: index for index, name in enumerate(LEVEL_FIELDS)}
    role, step, invariant = field["role"], field["step"], field["invariant"]
    n_lower, n_upper, offset = field["n_lower"], field["n_upper"], field["offset"]
    parallel = ROLE_CODES["parallel"]
    partition = ROLE_CODES["partition"]
    sequential = ROLE_CODES["sequential"]
    helpers = "\n".join(_C_HELPERS)
    return f"""\
#include <stdint.h>

{helpers}

{_RUN_TYPEDEF}
typedef int64_t (*repro_walk_fn)(int64_t n_chunks, const int64_t *keys, const int64_t *bt,
                                 repro_run_fn run, void *const *arrays);

int64_t {SCAN_SYMBOL}(int64_t depth, const int64_t *bt, int64_t *stamps, int64_t *found,
                   repro_walk_fn walk, repro_run_fn run, void *const *arrays)
{{
    const int64_t header = {len(LEVEL_FIELDS)} + depth;
    int64_t batch[{_SCAN_BATCH} * depth], held = 0, status;
    int64_t j[depth], lo[depth], hi[depth], g[depth], key[depth];
    int64_t radix[depth], slot[depth], visit[depth];
    int sweep[depth], leap[depth];
    int64_t labels = 1, swept = 0, clock = 0, count = 0, k;
    for (k = 0; k < depth; ++k) {{
        const int64_t *h = bt + k * header;
        const int every = h[{role}] == {parallel} && h[{step}] == 1;
        sweep[k] = !every && !h[{invariant}];
        leap[k] = h[{role}] == {parallel} && !sweep[k];
        radix[k] = h[{role}] == {partition} ? labels : 0;
        if (h[{role}] == {partition}) {{ labels *= h[{step}]; }}
        slot[k] = swept;
        swept += sweep[k];
        visit[k] = 0;
    }}
    int enter = 1;
    k = 0;
    while (k >= 0) {{
        const int64_t *h = bt + k * header;
        const int64_t st = h[{step}];
        if (enter) {{
            const int64_t n = h[{n_lower}] + h[{n_upper}];
            int64_t e = h[{offset}];
            for (int64_t x = 0; x < n; ++x, e += depth + 2) {{
                int64_t acc = bt[e + 1];
                for (int64_t t = 0; t < k; ++t) {{ acc += bt[e + 2 + t] * j[t]; }}
                if (x < h[{n_lower}]) {{
                    const int64_t v = repro_ceil(acc, bt[e]);
                    if (x == 0 || v > lo[k]) {{ lo[k] = v; }}
                }} else {{
                    const int64_t v = repro_floor(acc, bt[e]);
                    if (x == h[{n_lower}] || v < hi[k]) {{ hi[k] = v; }}
                }}
            }}
            if (!sweep[k] && !(h[{role}] == {parallel} && st == 1)) {{
                if (h[{role}] == {partition} && lo[k] + st - 1 < hi[k]) {{ hi[k] = lo[k] + st - 1; }}
                if (h[{role}] == {sequential} && lo[k] < hi[k]) {{ hi[k] = lo[k]; }}
            }}
            j[k] = lo[k];
            enter = 0;
            if (k == depth - 1 && !swept) {{
                /* Without sweeps every value the scan visits at the
                   innermost level starts a new chunk: append them all. */
                const int64_t role = h[{role}], top = hi[k];
                const int every = leap[k] && st == 1;
                int64_t shifted = 0;
                for (int64_t u = 0; u < k; ++u) {{ shifted += h[{len(LEVEL_FIELDS)} + u] * g[u]; }}
                for (int64_t v = lo[k]; v <= top;
                     v = every ? v + 1 : leap[k] ? (repro_floor(v, st) + 1) * st : v + 1) {{
                    int64_t *row = batch + held * depth;
                    for (int64_t u = 0; u < k; ++u) {{ row[u] = key[u]; }}
                    if (every) {{
                        row[k] = v;
                    }} else {{
                        const int64_t r = v - shifted;
                        const int64_t gv = repro_floor(r, st);
                        row[k] = role == {partition} ? r - gv * st : role == {parallel} ? gv : 0;
                    }}
                    ++count;
                    if (++held == {_SCAN_BATCH}) {{
                        status = walk(held, batch, bt, run, arrays);
                        held = 0;
                        if (status != 0) {{ *found = count; return status; }}
                    }}
                }}
                --k;
                continue;
            }}
        }} else {{
            j[k] = leap[k] ? (repro_floor(j[k], st) + 1) * st : j[k] + 1;
        }}
        if (j[k] > hi[k]) {{
            --k;
            continue;
        }}
        if (sweep[k] && (j[k] == lo[k] || (h[{role}] == {parallel} && repro_mod(j[k], st) == 0))) {{
            visit[k] = ++clock;
        }}
        int64_t r = j[k];
        for (int64_t u = 0; u < k; ++u) {{ r -= h[{len(LEVEL_FIELDS)} + u] * g[u]; }}
        g[k] = repro_floor(r, st);
        key[k] = h[{role}] == {partition} ? r - g[k] * st : h[{role}] == {parallel} ? g[k] : 0;
        if (k + 1 < depth) {{
            ++k;
            enter = 1;
            continue;
        }}
        int fresh = 1;
        if (swept) {{
            int64_t at = 0;
            for (int64_t u = 0; u < depth; ++u) {{ at += key[u] * radix[u]; }}
            for (int64_t u = depth - 1; u >= 0 && fresh; --u) {{
                if (sweep[u]) {{
                    int64_t *seen = stamps + slot[u] * labels + at;
                    if (*seen == visit[u]) {{ fresh = 0; }} else {{ *seen = visit[u]; }}
                }}
            }}
        }}
        if (fresh) {{
            for (int64_t u = 0; u < depth; ++u) {{ batch[held * depth + u] = key[u]; }}
            ++count;
            if (++held == {_SCAN_BATCH}) {{
                status = walk(held, batch, bt, run, arrays);
                held = 0;
                if (status != 0) {{ *found = count; return status; }}
            }}
        }}
    }}
    *found = count;
    return held ? walk(held, batch, bt, run, arrays) : 0;
}}
"""


def emit_kernel_source(nest: LoopNest, inverse) -> str:
    """Render the kernel of ``nest`` as C: the innermost loop of its body.

    ``repro_run(j, lo, hi, step, arrays)`` runs the new-space points
    ``(j[0], ..., j[depth - 2], v)`` for ``v = lo, lo + step, ..., hi`` in
    order: it computes the original indices through the inverse transform,
    evaluates the statements with their guards, and returns the first
    nonzero status (0 when the whole range ran).  ``arrays`` holds each
    array's raw float64 buffer, int64 origin and int64 shape, in canonical
    slot order.  The source hard-codes only the depth, the statements and
    the inverse transform; the walker of the nest's depth
    (:func:`walker_source`) finds the ranges in the plan's tables.
    """
    emitter = _KernelEmitter(nest)
    for stmt in nest.statements:
        emitter.statement(stmt)
    inner = nest.depth - 1
    lines = [
        "#include <math.h>",
        "#include <stdint.h>",
        "",
        f"int64_t {KERNEL_SYMBOL}(const int64_t *j, int64_t lo, int64_t hi, int64_t step, "
        "void *const *arrays)",
        "{",
    ]
    for slot, (_, ndim) in enumerate(_array_slots(nest)):
        lines += [
            f"    double *a{slot} = (double *)arrays[{3 * slot}];",
            f"    const int64_t *a{slot}_org = (const int64_t *)arrays[{3 * slot + 1}];",
            f"    const int64_t *a{slot}_shp = (const int64_t *)arrays[{3 * slot + 2}];",
        ]
        for k in range(ndim - 2, -1, -1):
            outer = (
                f"a{slot}_s{k + 1} * a{slot}_shp[{k + 1}]"
                if k + 1 < ndim - 1
                else f"a{slot}_shp[{k + 1}]"
            )
            lines.append(f"    int64_t a{slot}_s{k} = {outer};")
    lines += [f"    const int64_t j{r} = j[{r}];" for r in range(inner)]
    lines.append(f"    for (int64_t j{inner} = lo; j{inner} <= hi; j{inner} += step) {{")
    lines.extend(
        f"        {text}" for text in _inverse_assignments(nest.depth, inverse) + emitter.lines
    )
    return "\n".join(lines + ["    }", "    return 0;", "}"]) + "\n"


def walker_source(depth: int, flavor: str) -> str:
    """The C source of the walker library of ``depth`` loops.

    It holds what every plan of that depth runs, whatever its body:

    * ``repro_walk(n_chunks, keys, bt, run, arrays)`` walks the key rows
      ``keys`` (``n_chunks * depth`` ints) in order over the plan's bound
      table ``bt`` (:meth:`~repro.plan.ExecutionPlan.bound_table`), level
      by level as :meth:`~repro.plan.ExecutionPlan.iterations_for` does,
      handing each innermost range to the kernel ``run``
      (:func:`emit_kernel_source`), and stops at the first nonzero status.
      The chunk scan (:func:`scan_source`) hands its batches here too.
    * ``repro_drive(n_threads, starts, keys, bt, statuses, run, arrays)``,
      the parallel driver: thread ``t`` walks chunks ``starts[t]`` to
      ``starts[t + 1] - 1`` into ``statuses[t]``, and the first nonzero
      status in thread order — the first failing chunk's *in chunk order*
      — is returned, matching the serial error semantics.  ``flavor``
      ``"openmp"`` makes it one OpenMP ``parallel for`` over the ranges
      (build with ``-fopenmp``); ``"pthreads"`` starts a helper thread per
      range after the first (build with ``-pthread``) and runs on the
      calling thread range 0 and any range whose helper cannot start.

    The source bakes in only the depth, so the level loops are specialized
    to it: one walker for every depth lost up to 1.5x on plans of tiny
    chunks.
    """
    if flavor not in ("openmp", "pthreads"):
        raise ExecutionError(f"unknown C parallel flavor {flavor!r}")
    lines = ["#include <stdint.h>"]
    if flavor == "pthreads":
        lines += ["#include <pthread.h>", "#include <stdlib.h>"]
    lines += [
        "",
        *_C_HELPERS,
        "",
        _RUN_TYPEDEF,
        "",
        "static int64_t repro_walk_chunk(const int64_t *key, const int64_t *bt, "
        "repro_run_fn run, void *const *arrays)",
        "{",
        f"    int64_t jv[{depth}];",
    ]
    for level in range(depth):
        lines.extend("    " * (level + 1) + text for text in _level_lines(level, depth))
    lines.extend("    " * (level + 1) + "}" for level in range(depth - 2, -1, -1))
    lines += [
        "    return 0;",
        "}",
        "",
        f"int64_t {WALK_SYMBOL}(int64_t n_chunks, const int64_t *keys, const int64_t *bt, "
        "repro_run_fn run, void *const *arrays)",
        "{",
        "    for (int64_t c = 0; c < n_chunks; ++c) {",
        f"        const int64_t status = repro_walk_chunk(keys + c * {depth}, bt, run, arrays);",
        "        if (status != 0) { return status; }",
        "    }",
        "    return 0;",
        "}",
        "",
    ]
    signature = (
        f"int64_t {DRIVER_SYMBOL}(int64_t n_threads, const int64_t *starts, "
        "const int64_t *keys, const int64_t *bt, int64_t *statuses, repro_run_fn run, "
        "void *const *arrays)"
    )
    first_error = [
        "    for (t = 0; t < n_threads; ++t) {",
        "        if (statuses[t] != 0) { return statuses[t]; }",
        "    }",
        "    return 0;",
        "}",
    ]
    if flavor == "openmp":
        lines += [
            signature,
            "{",
            "    int64_t t;",
            "    #pragma omp parallel for schedule(static, 1) "
            "num_threads(n_threads < 1 ? 1 : (int)n_threads)",
            "    for (t = 0; t < n_threads; ++t) {",
            f"        statuses[t] = {WALK_SYMBOL}(starts[t + 1] - starts[t], "
            f"keys + starts[t] * {depth}, bt, run, arrays);",
            "    }",
        ] + first_error
        return "\n".join(lines) + "\n"
    lines += [
        "typedef struct {",
        "    int64_t n_chunks;",
        "    const int64_t *keys;",
        "    const int64_t *bt;",
        "    int64_t *status;",
        "    repro_run_fn run;",
        "    void *const *arrays;",
        "    int started;",
        "    pthread_t id;",
        "} repro_range_t;",
        "",
        "static void *repro_run_range(void *opaque)",
        "{",
        "    repro_range_t *r = (repro_range_t *)opaque;",
        f"    *r->status = {WALK_SYMBOL}(r->n_chunks, r->keys, r->bt, r->run, r->arrays);",
        "    return 0;",
        "}",
        "",
        signature,
        "{",
        "    /* Range 0 runs on the calling thread and every further range on a",
        "       helper.  A range whose helper cannot start runs here as well, and",
        "       so does every chunk when the range table cannot be allocated. */",
        "    repro_range_t *ranges = (repro_range_t *)calloc((size_t)n_threads, sizeof *ranges);",
        "    int64_t t;",
        "    if (ranges == 0) {",
        f"        return {WALK_SYMBOL}(starts[n_threads], keys, bt, run, arrays);",
        "    }",
        "    for (t = 0; t < n_threads; ++t) {",
        "        ranges[t] = (repro_range_t){starts[t + 1] - starts[t], "
        f"keys + starts[t] * {depth}, bt, &statuses[t], run, arrays}};",
        "        ranges[t].started = t > 0",
        "            && pthread_create(&ranges[t].id, 0, repro_run_range, &ranges[t]) == 0;",
        "    }",
        "    for (t = 0; t < n_threads; ++t) {",
        "        if (ranges[t].started) {",
        "            pthread_join(ranges[t].id, 0);",
        "        } else {",
        "            repro_run_range(&ranges[t]);",
        "        }",
        "    }",
        "    free(ranges);",
    ] + first_error
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# toolchain discovery and builds
# --------------------------------------------------------------------------- #

_UNSET = object()
_OPENMP_CACHED = _UNSET
_COMPILER_CACHED = _UNSET
_SCAN_CACHED = _UNSET
_WALKERS: Dict[int, Optional["_Walker"]] = {}
_LAST_BUILD_ERROR: Optional[str] = None


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


def resolve_engine() -> Optional[str]:
    """``"cc"`` when native execution is on and a C compiler is found.

    ``$REPRO_NATIVE_ENGINE`` unset, ``auto`` or ``cc`` turns native
    execution on.  Any other value turns it off and yields ``None``:
    ``none``, ``off`` and ``disabled`` on purpose, and a misspelled name
    too, so a typo never silently selects an engine.  The backend then falls
    back to vectorized execution.
    """
    request = os.environ.get(ENGINE_ENV, "").strip().lower()
    if request not in ("", "auto", "cc"):
        return None
    return "cc" if _find_c_compiler() is not None else None


def last_build_error() -> Optional[str]:
    """stderr / exception text of the most recent failed kernel build."""
    return _LAST_BUILD_ERROR


def _cache_path() -> str:
    path = os.environ.get(CACHE_DIR_ENV)
    if path:
        return path
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-native")


def native_cache_dir() -> str:
    """On-disk kernel cache directory (``$REPRO_NATIVE_CACHE`` overrides),
    created on first use; raises :class:`OSError` when it cannot be."""
    path = _cache_path()
    os.makedirs(path, exist_ok=True)
    return path


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:32]


def _write_atomic(path: str, content: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(content)
    os.replace(tmp, path)


def _load_cc(source: str, directory: str, flags: List[str], stem: str):
    """Compile C source to a shared object cached in ``directory`` under
    ``stem`` and the source hash, and load it; None on failure, with the
    reason in :func:`last_build_error`."""
    global _LAST_BUILD_ERROR
    compiler = _find_c_compiler()
    if compiler is None:
        return None
    digest = _source_digest(source)
    so_path = os.path.join(directory, f"{stem}_{digest}.so")
    if not os.path.exists(so_path):
        c_path = os.path.join(directory, f"{stem}_{digest}.c")
        tmp_so = f"{so_path}.tmp.{os.getpid()}"
        try:
            _write_atomic(c_path, source)
            result = subprocess.run(
                [compiler, "-O2", "-fPIC", "-shared", *flags, "-o", tmp_so,
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
        return ctypes.CDLL(so_path)
    except OSError as exc:  # pragma: no cover - corrupt cache entry
        _LAST_BUILD_ERROR = f"{type(exc).__name__}: {exc}"
        return None


_P = ctypes.c_void_p
_I64_P = ctypes.POINTER(ctypes.c_int64)
_ARRAYS_P = ctypes.POINTER(ctypes.c_void_p)
#: Argument types of each entry point.
_ARGTYPES = {
    KERNEL_SYMBOL: [_P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _ARRAYS_P],
    WALK_SYMBOL: [ctypes.c_int64, _P, _P, _P, _ARRAYS_P],
    DRIVER_SYMBOL: [ctypes.c_int64, _P, _P, _P, _P, _P, _ARRAYS_P],
    SCAN_SYMBOL: [ctypes.c_int64, _P, _P, _I64_P, _P, _P, _ARRAYS_P],
}


def _load_entries(source: str, directory: str, flags: List[str], stem: str, *symbols):
    """Build and load ``source`` (:func:`_load_cc`) and return its entry
    points ``symbols``; None on failure, with the reason in
    :func:`last_build_error`."""
    global _LAST_BUILD_ERROR
    library = _load_cc(source, directory, flags, stem)
    if library is None:
        return None
    try:
        entries = [getattr(library, symbol) for symbol in symbols]
    except AttributeError as exc:  # pragma: no cover - corrupt cache entry
        _LAST_BUILD_ERROR = f"{type(exc).__name__}: {exc}"
        return None
    for symbol, entry in zip(symbols, entries):
        entry.restype = ctypes.c_int64
        entry.argtypes = _ARGTYPES[symbol]
    return entries


def _scan_function():
    """The shared chunk scan (:func:`scan_source`), built once per process
    and cache directory; None when it cannot be built.  Call it under
    ``_LOCK``."""
    global _SCAN_CACHED
    if _SCAN_CACHED is _UNSET:
        entries = _load_entries(scan_source(), native_cache_dir(), [], SCAN_SYMBOL, SCAN_SYMBOL)
        _SCAN_CACHED = entries[0] if entries is not None else None
    return _SCAN_CACHED


class _Walker(NamedTuple):
    """The loaded walker library of one depth, and the shared scan (None
    when it cannot be built)."""

    walk: object
    drive: object
    flavor: str
    scan: object
    walk_address: ctypes.c_void_p


def _walker(depth: int, directory: str, flavor: str) -> Optional[_Walker]:
    """The walker of ``depth`` loops (:func:`walker_source`), built by the
    first kernel of that depth and kept for the process, like a failure
    (None).  Call it under ``_LOCK``."""
    if depth not in _WALKERS:
        if flavor == "openmp":
            # libgomp reads its wait policy once, when the first library
            # linked to it loads, which is here.  Its default spin-waits:
            # warm driver runs then took 4-6x serial on a busy 2-vCPU host.
            os.environ.setdefault("OMP_WAIT_POLICY", "PASSIVE")
        flags = ["-fopenmp" if flavor == "openmp" else "-pthread"]
        entries = _load_entries(
            walker_source(depth, flavor), directory, flags, WALK_SYMBOL, WALK_SYMBOL, DRIVER_SYMBOL
        )
        _WALKERS[depth] = None if entries is None else _Walker(
            *entries, flavor, _scan_function(), ctypes.cast(entries[0], ctypes.c_void_p)
        )
    return _WALKERS[depth]


# --------------------------------------------------------------------------- #
# kernels and the process-wide cache
# --------------------------------------------------------------------------- #

def _address(array: np.ndarray) -> int:
    """The address of a writable C-contiguous array's data, at a third of
    the cost of ``array.ctypes.data``."""
    return ctypes.addressof((ctypes.c_char * 0).from_buffer(array))


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
    """One compiled kernel body and the walker of its depth, with the
    marshalling of their calls.

    ``flavor`` names the walker's parallel driver (``"openmp"`` or
    ``"pthreads"``), ``None`` when it has none.
    """

    __slots__ = ("depth", "array_dims", "source", "compile_seconds", "_run", "_walker")

    def __init__(self, run, walker: _Walker, depth, array_dims, source, compile_seconds):
        self.depth = depth
        self.array_dims = tuple(array_dims)
        self.source = source
        self.compile_seconds = compile_seconds
        # The walker calls the kernel through its address.
        self._run = ctypes.cast(run, ctypes.c_void_p)
        self._walker = walker

    @property
    def flavor(self) -> Optional[str]:
        return self._walker.flavor if self.supports_parallel else None

    @property
    def supports_parallel(self) -> bool:
        """Whether this kernel's walker carries a usable parallel driver."""
        return self._walker.drive is not None

    def _marshal(self, offset_arrays, bounds: np.ndarray, *tables: np.ndarray):
        """The addresses of each array's float64 buffer, int64 origin and
        int64 shape, in slot order, as one pointer array, and the int64
        block holding the origins and shapes, which the caller keeps alive
        for the duration of the call; None when a table or an array's
        layout cannot be passed to native code (caller falls back)."""
        for table in (bounds, *tables):
            if table.dtype != np.int64 or table.ndim != 1 or not table.flags["C_CONTIGUOUS"]:
                return None
        if bounds.size < self.depth * (len(LEVEL_FIELDS) + self.depth):
            return None
        buffers, extents = [], []
        for array, ndim in zip(offset_arrays, self.array_dims):
            data = array.data
            flags = data.flags
            if data.dtype != np.float64 or data.ndim != ndim or not (
                flags.c_contiguous and flags.writeable
            ):
                return None
            buffers.append(_address(data))
            extents += (*array.origin, *data.shape)
        block = (ctypes.c_int64 * len(extents))(*extents)
        origin = ctypes.addressof(block)
        addresses = []
        for buffer, ndim in zip(buffers, self.array_dims):
            addresses += (buffer, origin, origin + 8 * ndim)
            origin += 16 * ndim
        return (ctypes.c_void_p * len(addresses))(*addresses), block

    def execute(self, offset_arrays, packed: PackedChunks) -> Optional[int]:
        """Run the given key rows in order; returns the status code, or None
        when an array's layout cannot be marshalled (caller falls back)."""
        n_chunks, keys, bounds = packed
        if keys.size != n_chunks * self.depth:
            return None
        marshalled = self._marshal(offset_arrays, bounds, keys)
        if marshalled is None:
            return None
        # The plan's tables may be read-only.
        return self._walker.walk(
            n_chunks, keys.ctypes.data, bounds.ctypes.data, self._run, marshalled[0]
        )

    def scan(self, offset_arrays, bounds: np.ndarray, stamps: int) -> Optional[Tuple[int, int]]:
        """Find and run every chunk of the plan whose bound table is
        ``bounds`` through the shared scan; returns ``(status, chunks
        run)``, or None when there is no scan or the marshalling is
        unusable — nothing has been written then."""
        walker = self._walker
        if walker.scan is None:
            return None
        marshalled = self._marshal(offset_arrays, bounds)
        if marshalled is None:
            return None
        seen = np.zeros(stamps, dtype=np.int64) if stamps else None
        found = ctypes.c_int64(0)
        status = walker.scan(
            self.depth,
            bounds.ctypes.data,
            None if seen is None else _address(seen),
            ctypes.byref(found),
            walker.walk_address,
            self._run,
            marshalled[0],
        )
        return status, found.value

    def execute_parallel(self, offset_arrays, packed: PackedChunks, starts) -> Optional[int]:
        """Run chunks ``starts[t]`` to ``starts[t + 1] - 1`` on thread ``t``;
        returns the first failing chunk's status code (in chunk order), or
        None when the walker has no parallel driver or the ranges or the
        marshalling are unusable — no writes have happened in that case, so
        the caller can fall back safely."""
        if not self.supports_parallel:
            return None
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        edges = starts.tolist()
        if starts.ndim != 1 or edges[:1] != [0] or edges[-1:] != [packed.n_chunks]:
            return None
        if edges != sorted(edges):
            return None
        n_chunks, keys, bounds = packed
        if keys.size != n_chunks * self.depth:
            return None
        marshalled = self._marshal(offset_arrays, bounds, keys)
        if marshalled is None:
            return None
        statuses = np.zeros(starts.size - 1, dtype=np.int64)
        return self._walker.drive(
            starts.size - 1, starts.ctypes.data, keys.ctypes.data, bounds.ctypes.data,
            statuses.ctypes.data, self._run, marshalled[0],
        )


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

    def execute_parallel(self, store, packed: PackedChunks, starts) -> Optional[int]:
        arrays = self._arrays(store)
        if arrays is None:
            return None
        return self.kernel.execute_parallel(arrays, packed, starts)

    def scan(self, store, plan) -> Optional[Tuple[int, int]]:
        """Run the whole plan through the chunk scan: ``(status, chunks
        run)``, or None — nothing written — when the plan keeps the
        key-table path, there is no scan, or nothing can be marshalled."""
        stamps = plan.scan_stamps()
        if stamps is None:
            return None
        arrays = self._arrays(store)
        if arrays is None:
            return None
        return self.kernel.scan(arrays, plan.bound_table(), stamps)


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
    """Drop cached kernels, stats, the walkers, the shared scan and the
    memoized toolchain probes."""
    global _OPENMP_CACHED, _COMPILER_CACHED, _SCAN_CACHED, _LAST_BUILD_ERROR
    with _LOCK:
        _KERNELS.clear()
        _WALKERS.clear()
        for key in _STATS:
            _STATS[key] = 0.0 if key == "build_seconds" else 0
        _OPENMP_CACHED = _UNSET
        _COMPILER_CACHED = _UNSET
        _SCAN_CACHED = _UNSET
        _LAST_BUILD_ERROR = None


def _build_kernel(nest: LoopNest, inverse) -> Optional[NativeKernel]:
    """Canonicalize, emit, compile and load the kernel of a nest and the
    walker of its depth (None on failure, with the reason in
    :func:`last_build_error`)."""
    global _LAST_BUILD_ERROR
    started = time.perf_counter()
    nest = canonicalize(nest).nest
    try:
        directory = native_cache_dir()
        flavor = "openmp" if openmp_supported() else "pthreads"
    except OSError as exc:
        # The cache directory cannot be created or written (the OpenMP
        # probe persists its verdict there): a failed build, like a
        # compiler error.
        _LAST_BUILD_ERROR = (
            f"native kernel cache {_cache_path()!r} is unusable: "
            f"{type(exc).__name__}: {exc}"
        )
        return None
    source = emit_kernel_source(nest, inverse)
    built = _load_entries(source, directory, [], "repro_kernel", KERNEL_SYMBOL)
    # The walker of the depth and the shared scan build with the first
    # kernel that needs them, inside the setup window.
    walker = _walker(nest.depth, directory, flavor) if built is not None else None
    if walker is None:
        return None
    dims = tuple(ndim for _, ndim in _array_slots(nest))
    return NativeKernel(
        built[0], walker, nest.depth, dims, source, time.perf_counter() - started
    )


def native_program_for(transformed) -> Optional[NativeProgram]:
    """The native program of a transformed nest, or None (caller falls back).

    Kernels are shared across alpha-equivalent programs: the cache key is
    the canonical depth and statements of the nest and the inverse
    transform — everything the emitted source reads.  The loop bounds are
    not part of it (the plan's tables carry them at run time), so one
    program at several problem sizes, or two sessions running renamed
    copies of it, compile exactly once per process (and, through the
    on-disk artifact, roughly once per machine).
    """
    if resolve_engine() is None:
        return None
    nest = transformed.nest
    if not nest_is_native_supported(nest):
        return None
    inverse = tuple(map(tuple, transformed.inverse_transform))
    key = (canonical_body_key(nest), inverse)
    with _LOCK:
        if key in _KERNELS:
            _KERNELS.move_to_end(key)
            _STATS["hits"] += 1
            kernel = _KERNELS[key]
            if kernel is None:
                return None
            return NativeProgram(kernel, _original_array_order(nest))
        _STATS["misses"] += 1
        kernel = _build_kernel(nest, inverse)
        if kernel is not None:
            _STATS["builds"] += 1
            _STATS["build_seconds"] += kernel.compile_seconds
        # Build failures are cached too (as None) so a broken toolchain does
        # not re-invoke the compiler on every run.
        _KERNELS[key] = kernel
        while len(_KERNELS) > _KERNEL_CACHE_LIMIT:
            _KERNELS.popitem(last=False)
            _STATS["evictions"] += 1
    if kernel is None:
        return None
    return NativeProgram(kernel, _original_array_order(nest))
