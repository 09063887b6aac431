"""Emission of runnable Python source for original and transformed loops.

The paper's output is restructured Fortran (``doall`` loops with strides and
modulo start offsets, see loop (3.2) and the Section 4 examples).  The
reproduction emits the equivalent Python: plain nested ``for`` loops for the
original nest and, for the transformed nest,

* one ``for`` loop per partition offset (``doall`` — annotated in a comment),
* the unimodular-transformed loops with Fourier–Motzkin bounds,
* strides equal to the HNF diagonal and modulo start expressions for the
  partitioned levels, and
* the back-substitution ``i = j @ T^{-1}`` feeding the original body.

The emitted source only needs the array store passed as ``arrays`` (a mapping
from array name to an object indexable by integer tuples, e.g.
:class:`repro.runtime.arrays.OffsetArray`) and is therefore directly
executable; the test-suite compiles it and checks it against the interpreter.
Every divisor of ``/``, ``//`` and ``%`` in a statement body goes through
the emitted ``_nonzero`` check, so a zero divisor raises
``ZeroDivisionError`` like the interpreter instead of NumPy's inf/nan.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.exceptions import CodegenError
from repro.intlin.fourier_motzkin import VariableBounds
from repro.loopnest.expr import DIVISION_OPS, BinaryOp, Call, Expression, UnaryOp
from repro.loopnest.nest import LoopNest

__all__ = [
    "emit_original_source",
    "emit_transformed_source",
    "emit_chunk_body_source",
    "compile_loop_function",
]

_PREAMBLE_FUNCTIONS = (
    "sin", "cos", "tan", "exp", "log", "sqrt", "floor", "ceil",
)

_PREAMBLE = [
    "import math",
    f"from math import {', '.join(_PREAMBLE_FUNCTIONS)}",
    "",
    "",
    "def _nonzero(divisor):",
    "    if divisor == 0:",
    '        raise ZeroDivisionError("division by zero")',
    "    return divisor",
    "",
    "",
]


def _checked_source(expr: Expression) -> str:
    """``expr.to_source()`` with every ``/``, ``//`` and ``%`` divisor
    wrapped in ``_nonzero(...)`` (operands still evaluate left to right)."""
    if isinstance(expr, BinaryOp):
        left, right = _checked_source(expr.left), _checked_source(expr.right)
        if expr.op in DIVISION_OPS:
            right = f"_nonzero({right})"
        return f"({left} {expr.op} {right})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op}{_checked_source(expr.operand)})"
    if isinstance(expr, Call):
        return f"{expr.name}({', '.join(_checked_source(arg) for arg in expr.args)})"
    return expr.to_source()


def _body_lines(nest: LoopNest, indent: str) -> List[str]:
    return [
        f"{indent}{stmt.target.to_source()} = {_checked_source(stmt.rhs)}"
        for stmt in nest.statements
    ]


def _array_prelude(nest: LoopNest, indent: str) -> List[str]:
    lines = []
    for name in sorted(nest.array_names()):
        lines.append(f'{indent}{name} = arrays["{name}"]')
    return lines


def emit_original_source(nest: LoopNest, function_name: str = "run_original") -> str:
    """Emit a Python function executing the original nest sequentially."""
    indent = "    "
    lines = _PREAMBLE + [
        f"def {function_name}(arrays):",
        f'{indent}"""Sequential execution of loop nest {nest.name!r} (generated code)."""',
    ]
    lines.extend(_array_prelude(nest, indent))
    level_indent = indent
    for name, bound in zip(nest.index_names, nest.bounds):
        lines.append(
            f"{level_indent}for {name} in range({bound.lower}, ({bound.upper}) + 1):"
        )
        level_indent += indent
    lines.extend(_body_lines(nest, level_indent))
    lines.append(f"{indent}return arrays")
    return "\n".join(lines) + "\n"


def _fresh_name(base: str, taken) -> str:
    """A variant of ``base`` that collides with nothing in ``taken``."""
    name = base
    while name in taken:
        name += "_"
    return name


def emit_chunk_body_source(nest: LoopNest, function_name: str = "run_chunk_body") -> str:
    """Emit a function executing the body for a list of index vectors.

    The generated ``function_name(arrays, iterations)`` runs the statements
    for every original-space index vector in ``iterations``, in order.  The
    compiled backend uses it to execute chunk schedules without re-walking
    the statement AST per iteration; the caller supplies the (new-space →
    original-space mapped) iteration list of each chunk.  The parameter
    names are renamed away from any array or index called ``arrays`` /
    ``iterations`` — the array prelude would otherwise shadow them.
    """
    indent = "    "
    taken = nest.array_names() | set(nest.index_names)
    arrays_arg = _fresh_name("arrays", taken)
    iterations_arg = _fresh_name("iterations", taken)
    lines = _PREAMBLE + [
        f"def {function_name}({arrays_arg}, {iterations_arg}):",
        f'{indent}"""Body of loop nest {nest.name!r} over explicit iterations (generated code)."""',
    ]
    for name in sorted(nest.array_names()):
        lines.append(f'{indent}{name} = {arrays_arg}["{name}"]')
    unpack = ", ".join(nest.index_names)
    if nest.depth == 1:
        unpack += ","
    lines.append(f"{indent}for {unpack} in {iterations_arg}:")
    lines.extend(_body_lines(nest, indent * 2))
    lines.append(f"{indent}return {arrays_arg}")
    return "\n".join(lines) + "\n"


def _bound_source(bounds: VariableBounds, names: Sequence[str], which: str) -> str:
    """Render the effective lower/upper bound of one transformed loop level."""
    if which == "lower":
        exprs = [expr.as_source(names, "ceil") for expr in bounds.lowers]
        combiner = "max"
    else:
        exprs = [expr.as_source(names, "floor") for expr in bounds.uppers]
        combiner = "min"
    if not exprs:
        raise CodegenError("transformed loop level is unbounded")
    if len(exprs) == 1:
        return exprs[0]
    return f"{combiner}({', '.join(exprs)})"


def emit_transformed_source(
    transformed: TransformedLoopNest, function_name: str = "run_transformed"
) -> str:
    """Emit a Python function executing the transformed (parallelized) nest.

    The generated code is sequential Python, but the loops that the analysis
    proved parallel are annotated with ``# doall`` comments and the chunk
    structure (partition offsets, zero-column loops) is explicit, so a reader
    sees exactly the loop structure the paper reports.
    """
    nest = transformed.nest
    indent = "    "
    new_names = list(transformed.new_index_names)
    inverse = transformed.inverse_transform
    part = transformed.partitioning

    lines = _PREAMBLE + [
        f"def {function_name}(arrays):",
        f'{indent}"""Transformed execution of loop nest {nest.name!r} (generated code)."""',
    ]
    lines.extend(_array_prelude(nest, indent))

    depth = transformed.depth
    level_indent = indent

    # 1. partition offset loops (doall): one per partitioned level.
    offset_names: Dict[int, str] = {}
    if part is not None:
        for pos, level in enumerate(part.levels):
            offset = f"o_{new_names[level]}"
            offset_names[level] = offset
            stride = part.strides[pos]
            lines.append(
                f"{level_indent}for {offset} in range({stride}):  # doall (partition offset)"
            )
            level_indent += indent

    # 2. the transformed loops.
    part_levels = list(part.levels) if part is not None else []
    part_hnf = part.hnf if part is not None else []
    for level in range(depth):
        bounds = transformed.variable_bounds[level]
        outer = new_names[:level]
        lower_src = _bound_source(bounds, outer, "lower")
        upper_src = _bound_source(bounds, outer, "upper")
        name = new_names[level]
        is_parallel = level in transformed.parallel_levels
        if level in part_levels:
            pos = part_levels.index(level)
            stride = part.strides[pos]
            # Required residue class: offset + contributions of outer partitioned levels.
            target_terms = [offset_names[level]]
            for prev_pos in range(pos):
                prev_level = part_levels[prev_pos]
                coeff = part_hnf[prev_pos][pos]
                if coeff != 0:
                    target_terms.append(f"y_{new_names[prev_level]}*{coeff}")
            target_var = f"t_{name}"
            lines.append(f"{level_indent}{target_var} = {' + '.join(target_terms)}")
            lines.append(f"{level_indent}lo_{name} = {lower_src}")
            lines.append(
                f"{level_indent}start_{name} = lo_{name} + (({target_var} - lo_{name}) % {stride})"
            )
            lines.append(
                f"{level_indent}for {name} in range(start_{name}, ({upper_src}) + 1, {stride}):"
            )
            level_indent += indent
            lines.append(
                f"{level_indent}y_{name} = ({name} - {target_var}) // {stride}"
            )
        else:
            comment = "  # doall" if is_parallel else ""
            lines.append(
                f"{level_indent}for {name} in range({lower_src}, ({upper_src}) + 1):{comment}"
            )
            level_indent += indent

    # 3. back-substitution to the original indices: i = j @ T^{-1}.
    for col, original_name in enumerate(nest.index_names):
        terms = []
        for row, new_name in enumerate(new_names):
            coeff = inverse[row][col]
            if coeff == 0:
                continue
            if coeff == 1:
                terms.append(new_name)
            elif coeff == -1:
                terms.append(f"-{new_name}")
            else:
                terms.append(f"{coeff}*{new_name}")
        expr = " + ".join(terms) if terms else "0"
        lines.append(f"{level_indent}{original_name} = {expr}")

    lines.extend(_body_lines(nest, level_indent))
    lines.append(f"{indent}return arrays")
    return "\n".join(lines) + "\n"


def compile_loop_function(source: str, function_name: str):
    """Compile emitted source and return the named function object."""
    namespace: Dict[str, object] = {}
    try:
        exec(compile(source, f"<generated {function_name}>", "exec"), namespace)
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise CodegenError(f"generated source does not compile: {exc}") from exc
    if function_name not in namespace:
        raise CodegenError(f"generated source does not define {function_name!r}")
    return namespace[function_name]
