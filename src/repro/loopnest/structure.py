"""The walk behind a nest's canonical key: it looks every variable up among
the loop indices (a bound's among the outer ones) and records its level, so
:meth:`LoopNest.validate` checks scopes and keys the nest in one pass."""

from __future__ import annotations

from repro.exceptions import BoundsError, LoopNestError
from repro.loopnest.affine import AffineExpr
from repro.loopnest.expr import ArrayAccess, BinaryOp, Call, Constant, IndexTerm, UnaryOp

__all__ = ["structure_key"]


def _affine_key(expr: AffineExpr, levels: dict[str, int]):
    """Sparse positional form ``("affine", ((level, coeff), ...), constant)``,
    sorted by level so the key does not depend on how the index names sort."""
    terms = expr._coeffs  # the slots: this runs for every bound and subscript
    if len(terms) == 1:
        ((name, coeff),) = terms
        return ("affine", ((levels[name], coeff),), expr._constant)
    return ("affine", tuple(sorted([(levels[name], c) for name, c in terms])), expr._constant)


def _expr_key(expr, levels: dict[str, int], arrays: dict[str, str]):
    """Normalized structural key of a body expression: unary ``+`` dropped, a
    unary ``-`` of a constant folded, constants compared as floats, arrays
    named ``A0, A1, ...`` in order of first appearance (each target before
    its right-hand side, operands left to right).  Dispatches on the exact
    node type: the AST is closed and final."""
    kind = type(expr)
    if kind is ArrayAccess:
        name = arrays.get(expr.array)
        if name is None:
            name = arrays[expr.array] = f"A{len(arrays)}"
        return ("ref", name, tuple([_affine_key(sub, levels) for sub in expr.subscripts]))
    if kind is BinaryOp:
        left = _expr_key(expr.left, levels, arrays)
        return ("bin", expr.op, left, _expr_key(expr.right, levels, arrays))
    if kind is Constant:
        return ("const", float(expr.value))
    if kind is IndexTerm:
        return ("idx",) + _affine_key(expr.affine, levels)[1:]
    if kind is UnaryOp:
        inner = _expr_key(expr.operand, levels, arrays)
        if expr.op == "+":
            return inner
        return ("const", -inner[1]) if inner[0] == "const" else ("neg", inner)
    if kind is Call:
        return ("call", expr.name, tuple([_expr_key(arg, levels, arrays) for arg in expr.args]))
    raise LoopNestError(f"cannot canonicalize expression node {kind.__name__}")


def structure_key(nest) -> tuple:
    """``("nest", depth, bounds, statements)`` for a nest of distinct index
    names; raises when a bound uses a non-outer index or a statement a
    non-index."""
    levels: dict[str, int] = {}  # the outer indices while their bounds are read
    bounds = []
    for level, (name, bound) in enumerate(zip(nest.index_names, nest.bounds)):
        try:
            bounds.append((_affine_key(bound.lower, levels), _affine_key(bound.upper, levels)))
        except KeyError:
            extra = sorted(bound.variables() - levels.keys())
            raise BoundsError(
                f"bounds of loop {name!r} use {extra} which are not outer indices"
            ) from None
        levels[name] = level
    arrays: dict[str, str] = {}
    statements = []
    for k, stmt in enumerate(nest.statements):
        try:
            target = _expr_key(stmt.target, levels, arrays)
            statements.append(("assign", target, _expr_key(stmt.rhs, levels, arrays)))
        except KeyError:
            extra = sorted(stmt.variables() - levels.keys())
            raise LoopNestError(
                f"statement S{k} uses variables {extra} that are not loop indices"
            ) from None
    return ("nest", len(levels), tuple(bounds), tuple(statements))
