"""Expression AST for statement bodies.

Loop bodies in the paper are sequences of assignment statements; the
right-hand sides are arbitrary arithmetic over array elements whose
subscripts are affine in the loop indices.  The AST here is deliberately
small: constants, affine index terms, array accesses, unary/binary
arithmetic and a whitelist of math calls.  It supports exact evaluation by
the loop interpreter and rendering back to Python source by the code
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.exceptions import ExecutionError, SubscriptError
from repro.loopnest.affine import AffineExpr

__all__ = [
    "DIVISION_OPS",
    "Expression",
    "Constant",
    "IndexTerm",
    "ArrayAccess",
    "BinaryOp",
    "UnaryOp",
    "Call",
    "collect_array_accesses",
]


_BINARY_OPS: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "**": lambda a, b: a ** b,
}

#: Operators whose zero divisor raises ``ZeroDivisionError``.  Array reads
#: are NumPy float64 scalars, which would instead warn and yield inf/nan,
#: so every evaluator checks the divisor itself (the table above stays
#: elementwise: the vectorized backend applies it to whole arrays).
DIVISION_OPS = ("/", "//", "%")

_CALLS: Dict[str, Callable] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "min": min,
    "max": max,
    "floor": math.floor,
    "ceil": math.ceil,
}


class Expression:
    """Base class of all body-expression nodes."""

    def evaluate(self, env: Mapping[str, int], arrays: Mapping[str, object]):
        """Evaluate with concrete loop-index values and an array store."""
        raise NotImplementedError

    def array_accesses(self) -> List["ArrayAccess"]:
        """All array accesses appearing in this expression (reads)."""
        return []

    def variables(self) -> set:
        """All loop-index names referenced by the expression."""
        return set()

    def to_source(self) -> str:
        """Render as Python source."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_source()


@dataclass(frozen=True)
class Constant(Expression):
    """A numeric literal."""

    value: float

    def evaluate(self, env, arrays):
        return self.value

    def to_source(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class IndexTerm(Expression):
    """An affine expression of the loop indices used as a *value*."""

    affine: AffineExpr

    def evaluate(self, env, arrays):
        return self.affine.evaluate(env)

    def variables(self) -> set:
        return set(self.affine.variables())

    def to_source(self) -> str:
        return f"({self.affine})"


@dataclass(frozen=True)
class ArrayAccess(Expression):
    """``array[subscript_1, ..., subscript_d]`` with affine subscripts."""

    array: str
    subscripts: Tuple[AffineExpr, ...]

    def __post_init__(self):
        if not self.subscripts:
            raise SubscriptError(f"array access {self.array!r} needs at least one subscript")
        for sub in self.subscripts:
            if not isinstance(sub, AffineExpr):
                raise SubscriptError(
                    f"subscripts of {self.array!r} must be AffineExpr, got {type(sub).__name__}"
                )

    @property
    def dimension(self) -> int:
        return len(self.subscripts)

    def subscript_values(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        return tuple(sub.evaluate(env) for sub in self.subscripts)

    def evaluate(self, env, arrays):
        if self.array not in arrays:
            raise ExecutionError(f"array {self.array!r} is not defined in the store")
        return arrays[self.array][self.subscript_values(env)]

    def array_accesses(self) -> List["ArrayAccess"]:
        return [self]

    def variables(self) -> set:
        names = set()
        for sub in self.subscripts:
            names |= set(sub.variables())
        return names

    def access_matrix(self, index_names: Sequence[str]) -> Tuple[List[List[int]], List[int]]:
        """Return ``(F, a)`` with subscript ``k`` equal to ``F[k] . i + a[k]``."""
        rows, offsets = [], []
        for sub in self.subscripts:
            coeffs, const = sub.vectorize(index_names)
            rows.append(coeffs)
            offsets.append(const)
        return rows, offsets

    def to_source(self) -> str:
        subs = ", ".join(str(sub) for sub in self.subscripts)
        return f"{self.array}[{subs}]"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary arithmetic operation."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self):
        if self.op not in _BINARY_OPS:
            raise SubscriptError(f"unsupported binary operator {self.op!r}")

    def evaluate(self, env, arrays):
        left = self.left.evaluate(env, arrays)
        right = self.right.evaluate(env, arrays)
        if self.op in DIVISION_OPS and right == 0:
            raise ZeroDivisionError(f"division by zero in {self.to_source()}")
        return _BINARY_OPS[self.op](left, right)

    def array_accesses(self) -> List[ArrayAccess]:
        return self.left.array_accesses() + self.right.array_accesses()

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.op} {self.right.to_source()})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary minus (or plus)."""

    op: str
    operand: Expression

    def __post_init__(self):
        if self.op not in ("-", "+"):
            raise SubscriptError(f"unsupported unary operator {self.op!r}")

    def evaluate(self, env, arrays):
        value = self.operand.evaluate(env, arrays)
        return -value if self.op == "-" else value

    def array_accesses(self) -> List[ArrayAccess]:
        return self.operand.array_accesses()

    def variables(self) -> set:
        return self.operand.variables()

    def to_source(self) -> str:
        return f"({self.op}{self.operand.to_source()})"


@dataclass(frozen=True)
class Call(Expression):
    """A call to a whitelisted math function."""

    name: str
    args: Tuple[Expression, ...]

    def __post_init__(self):
        if self.name not in _CALLS:
            raise SubscriptError(
                f"unsupported function {self.name!r}; allowed: {sorted(_CALLS)}"
            )

    def evaluate(self, env, arrays):
        return _CALLS[self.name](*(arg.evaluate(env, arrays) for arg in self.args))

    def array_accesses(self) -> List[ArrayAccess]:
        out: List[ArrayAccess] = []
        for arg in self.args:
            out.extend(arg.array_accesses())
        return out

    def variables(self) -> set:
        names = set()
        for arg in self.args:
            names |= arg.variables()
        return names

    def to_source(self) -> str:
        args = ", ".join(arg.to_source() for arg in self.args)
        return f"{self.name}({args})"


def collect_array_accesses(expression: Expression) -> List[ArrayAccess]:
    """All array accesses of an expression, in left-to-right order."""
    return expression.array_accesses()
