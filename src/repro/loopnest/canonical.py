"""Structural canonicalization of loop nests.

Two loop nests that differ only in *naming* — loop index names, array names,
the report name — or in semantics-preserving surface syntax (a redundant
unary plus, an integer constant written as a float) describe the same
iteration space and the same dependence structure, so the analysis pipeline
derives the same pseudo distance matrix, transformation and partitioning for
both.  This module maps a :class:`~repro.loopnest.nest.LoopNest` to a
*canonical form* and a stable content hash so structurally equivalent nests
share one cache key in :mod:`repro.core.cache`:

* loop indices are renamed positionally to ``c1 .. cn`` (outermost first);
* array names are renamed to ``A0, A1, ...`` in order of first appearance
  (written target first, then the reads in textual order);
* bounds and subscripts are flattened to coefficient vectors over the index
  order (the :class:`~repro.loopnest.affine.AffineExpr` representation is
  already sorted and zero-coefficient free);
* expression trees are normalized: unary ``+`` is dropped, a unary ``-`` of
  a constant is folded, numeric constants are compared as floats;
* the nest's ``name`` is ignored.

The hash is the SHA-256 of this canonical serialization; it depends only on
structure, never on ``id()``, dict order or interpreter hash randomization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.exceptions import LoopNestError
from repro.loopnest.affine import AffineExpr
from repro.loopnest.bounds import LoopBounds
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
from repro.loopnest.statement import Statement

__all__ = [
    "CanonicalForm",
    "canonicalize",
    "canonical_key",
    "canonical_key_tuple",
    "canonical_body_key",
    "canonical_hash",
    "constant_kind_signature",
    "source_key",
    "positional_rename",
    "rename_nest_indices",
    "rename_nest_arrays",
]

_HASH_ATTR = "_repro_canonical_hash"


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical view of one loop nest.

    Attributes
    ----------
    nest:
        A structurally canonical :class:`LoopNest`: indices ``c1 .. cn``,
        arrays ``A0, A1, ...``, normalized expressions, name ``"canonical"``.
    key:
        The canonical serialization (a stable, human-inspectable string).
    hash:
        SHA-256 hex digest of ``key`` — the cache key component.
    index_mapping:
        Original index name → canonical index name.
    array_mapping:
        Original array name → canonical array name.
    """

    nest: LoopNest
    key: str
    hash: str
    index_mapping: Tuple[Tuple[str, str], ...]
    array_mapping: Tuple[Tuple[str, str], ...]


# --------------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------------- #

def _array_order(nest: LoopNest) -> Dict[str, str]:
    """Arrays in order of first appearance → canonical names ``A0, A1, ...``."""
    mapping: Dict[str, str] = {}

    def visit(name: str) -> None:
        if name not in mapping:
            mapping[name] = f"A{len(mapping)}"

    for stmt in nest.statements:
        visit(stmt.target.array)
        for access in stmt.rhs.array_accesses():
            visit(access.array)
    return mapping


def canonical_key_tuple(nest: LoopNest):
    """The canonical structure as a hashable tuple (see
    :mod:`repro.loopnest.structure`).

    This is the SHA-256 *preimage* of :func:`canonical_hash` and the
    in-process cache key of :class:`repro.core.cache.AnalysisCache`: two
    nests get the same tuple iff they are structurally equivalent.  A nest
    computes it when it validates (:meth:`LoopNest.validate`).
    """
    return nest._structure_key


def canonical_body_key(nest: LoopNest):
    """The bounds-free part of :func:`canonical_key_tuple`: depth and statements.

    Code emitted from the loop *body* — the compiled-Python chunk body and
    the native chunk kernel, which receive their iteration ranges at run
    time — depends on nothing else, so caches of such code key on this and
    one program at every problem size shares one entry.
    """
    _, depth, _, statements = canonical_key_tuple(nest)
    return depth, statements


def canonical_key(nest: LoopNest) -> str:
    """The canonical serialization of a nest (stable across naming changes)."""
    return repr(canonical_key_tuple(nest))


def canonical_hash(nest: LoopNest) -> str:
    """SHA-256 content hash of the canonical form.

    The stable cross-process identifier of a loop structure (e.g. for
    sharding or persistent caches); in-process lookups use
    :func:`canonical_key_tuple` directly.  Memoized on the nest instance.
    """
    memo = nest.__dict__
    digest = memo.get(_HASH_ATTR)
    if digest is None:
        digest = memo[_HASH_ATTR] = hashlib.sha256(canonical_key(nest).encode("utf-8")).hexdigest()
    return digest


# --------------------------------------------------------------------------- #
# renaming / rebuilding
# --------------------------------------------------------------------------- #

def _rename_affine(expr: AffineExpr, mapping: Dict[str, str]) -> AffineExpr:
    return AffineExpr(
        {mapping.get(name, name): coeff for name, coeff in expr.coefficients.items()},
        expr.constant,
    )


def _rebuild_expression(
    expr: Expression,
    mapping: Dict[str, str],
    arrays: Dict[str, str],
    float_constants: bool = True,
) -> Expression:
    """Rebuild an expression with renamed indices/arrays, normalizing on the way.

    ``float_constants`` is the canonical-form normalization (``2`` and ``2.0``
    compare equal); :func:`positional_rename` disables it because Python's
    ``//``/``%``/``**`` distinguish int from float operands, so code compiled
    from the renamed nest must keep the original constant types.
    """
    if isinstance(expr, Constant):
        return Constant(float(expr.value)) if float_constants else Constant(expr.value)
    if isinstance(expr, IndexTerm):
        return IndexTerm(_rename_affine(expr.affine, mapping))
    if isinstance(expr, ArrayAccess):
        return ArrayAccess(
            arrays.get(expr.array, expr.array),
            tuple(_rename_affine(sub, mapping) for sub in expr.subscripts),
        )
    if isinstance(expr, UnaryOp):
        operand = _rebuild_expression(expr.operand, mapping, arrays, float_constants)
        if expr.op == "+":
            return operand
        if isinstance(operand, Constant):
            return Constant(-operand.value)
        return UnaryOp(expr.op, operand)
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op,
            _rebuild_expression(expr.left, mapping, arrays, float_constants),
            _rebuild_expression(expr.right, mapping, arrays, float_constants),
        )
    if isinstance(expr, Call):
        return Call(
            expr.name,
            tuple(
                _rebuild_expression(arg, mapping, arrays, float_constants)
                for arg in expr.args
            ),
        )
    raise LoopNestError(f"cannot rebuild expression node {type(expr).__name__}")


def _rebuild_nest(
    nest: LoopNest,
    index_mapping: Dict[str, str],
    array_mapping: Dict[str, str],
    name: str,
    float_constants: bool = True,
) -> LoopNest:
    bounds = [
        LoopBounds(
            _rename_affine(b.lower, index_mapping),
            _rename_affine(b.upper, index_mapping),
        )
        for b in nest.bounds
    ]
    statements = [
        Statement(
            _rebuild_expression(stmt.target, index_mapping, array_mapping, float_constants),
            _rebuild_expression(stmt.rhs, index_mapping, array_mapping, float_constants),
        )
        for stmt in nest.statements
    ]
    new_names = [index_mapping.get(n, n) for n in nest.index_names]
    return LoopNest(new_names, bounds, statements, name)


def rename_nest_indices(nest: LoopNest, new_names: Sequence[str]) -> LoopNest:
    """A copy of the nest with loop indices renamed positionally."""
    if len(new_names) != nest.depth:
        raise LoopNestError(
            f"{len(new_names)} names for a depth-{nest.depth} nest"
        )
    mapping = dict(zip(nest.index_names, (str(n) for n in new_names)))
    return _rebuild_nest(nest, mapping, {}, nest.name)


def rename_nest_arrays(nest: LoopNest, mapping: Dict[str, str]) -> LoopNest:
    """A copy of the nest with arrays renamed via ``mapping`` (partial ok)."""
    return _rebuild_nest(nest, {}, dict(mapping), nest.name)


def positional_rename(nest: LoopNest) -> LoopNest:
    """Alpha-rename to the canonical positional names, keeping constant types.

    Indices become ``c1 .. cn`` and arrays ``A0, A1, ...`` exactly as in
    :func:`canonicalize`, but integer constants stay integers: compilers that
    key their code caches by canonical structure emit from this nest, and the
    emitted code must preserve Python's int-vs-float operator semantics
    (``//``, ``%``, ``**``).  Pair the cache key with
    :func:`constant_kind_signature` to tell such nests apart.
    """
    index_mapping = {name: f"c{k + 1}" for k, name in enumerate(nest.index_names)}
    array_mapping = _array_order(nest)
    return _rebuild_nest(
        nest, index_mapping, array_mapping, "canonical", float_constants=False
    )


def _constants(expr: Expression, out: list) -> None:
    """Append the value of every constant of ``expr``, in AST walk order."""
    if isinstance(expr, Constant):
        out.append(expr.value)
    elif isinstance(expr, UnaryOp):
        _constants(expr.operand, out)
    elif isinstance(expr, BinaryOp):
        _constants(expr.left, out)
        _constants(expr.right, out)
    elif isinstance(expr, Call):
        for arg in expr.args:
            _constants(arg, out)


def _body_constants(nest: LoopNest) -> list:
    values: list = []
    for stmt in nest.statements:
        _constants(stmt.rhs, values)
    return values


def constant_kind_signature(nest: LoopNest) -> Tuple[bool, ...]:
    """``True`` per *integer* constant of the body, in AST walk order.

    The canonical key compares constants as floats, so two nests whose bodies
    differ only in ``2`` vs ``2.0`` share a key even though ``//``/``%``/``**``
    may evaluate them differently.  Appending this signature to a canonical
    cache key makes the key exact for compiled code.
    """
    return tuple([isinstance(value, int) for value in _body_constants(nest)])


def source_key(nest: LoopNest) -> tuple:
    """A key that tells apart every two nests whose rendered source
    (``str(nest)``) differs, without rendering it.

    Names, bounds and statements compare structurally; body constants also
    compare by their spelling, since ``1``, ``1.0`` and ``-0.0`` equal
    ``1.0`` or ``0.0`` as values but read (and may run) differently.
    """
    spellings = tuple(map(repr, _body_constants(nest)))
    return (nest.index_names, nest.bounds, nest.statements, spellings)


def canonicalize(nest: LoopNest) -> CanonicalForm:
    """Full canonical form: renamed/normalized nest + serialization + hash."""
    index_mapping = {
        name: f"c{k + 1}" for k, name in enumerate(nest.index_names)
    }
    array_mapping = _array_order(nest)
    canonical_nest = _rebuild_nest(nest, index_mapping, array_mapping, "canonical")
    key = canonical_key(nest)
    return CanonicalForm(
        nest=canonical_nest,
        key=key,
        hash=canonical_hash(nest),
        index_mapping=tuple(sorted(index_mapping.items())),
        array_mapping=tuple(sorted(array_mapping.items())),
    )
