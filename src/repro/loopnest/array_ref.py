"""Array references with their access matrices.

An :class:`ArrayReference` is one textual occurrence of an array in the loop
body, together with whether it is written or read and which statement it
belongs to.  Its *access matrix* ``F`` and *offset vector* ``a`` describe the
subscripts as ``subscript_k(i) = F[k] . i + a[k]`` — the linear form required
by the paper (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.loopnest.affine import AffineExpr
from repro.loopnest.expr import ArrayAccess
from repro.utils.validation import trusted_record

__all__ = ["ArrayReference"]


@dataclass(frozen=True)
class ArrayReference:
    """One read or write reference to an array inside the loop body."""

    array: str
    subscripts: Tuple[AffineExpr, ...]
    is_write: bool
    statement_index: int
    position: int
    """Order of the reference within its statement (0 = written target)."""

    @classmethod
    def from_access(
        cls, access: ArrayAccess, is_write: bool, statement_index: int, position: int
    ) -> "ArrayReference":
        return trusted_record(
            cls,
            array=access.array,
            subscripts=tuple(access.subscripts),
            is_write=is_write,
            statement_index=statement_index,
            position=position,
        )

    @property
    def dimension(self) -> int:
        """Number of array dimensions."""
        return len(self.subscripts)

    def access_matrix(self, index_names: Sequence[str]) -> Tuple[List[List[int]], List[int]]:
        """Return ``(F, a)`` with subscript ``k = F[k] . i + a[k]``.

        ``F`` has one row per array dimension and one column per loop index.
        """
        rows: List[List[int]] = []
        offsets: List[int] = []
        for sub in self.subscripts:
            coeffs, const = sub.vectorize(index_names)
            rows.append(coeffs)
            offsets.append(const)
        return rows, offsets

    def subscript_values(self, env) -> Tuple[int, ...]:
        """Concrete subscript tuple for given index values."""
        return tuple(sub.evaluate(env) for sub in self.subscripts)

    def describe(self) -> str:
        """Human readable form, e.g. ``A[i1 + 1, 2*i2] (write, S0)``."""
        subs = ", ".join(str(s) for s in self.subscripts)
        kind = "write" if self.is_write else "read"
        return f"{self.array}[{subs}] ({kind}, S{self.statement_index})"

    def __str__(self) -> str:
        return self.describe()
