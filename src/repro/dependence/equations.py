"""Dependence equations for reference pairs.

For two references ``F(i) = F i + a`` and ``G(j) = G j + b`` to the same
array, a dependence requires ``F i + a = G j + b`` (equation (2.3)).  With
the unknowns gathered into the row vector ``x = (i, j)`` this is the linear
diophantine system ``x @ A = c`` with ``A = [[F^T], [-G^T]]`` and
``c = b - a`` (equations (2.5)/(2.6)); this module builds those systems and
enumerates the reference pairs of a loop nest that can possibly depend on
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import DependenceError
from repro.intlin.matrix import Matrix, Vector
from repro.loopnest.array_ref import ArrayReference
from repro.loopnest.nest import LoopNest
from repro.utils.validation import trusted_record

__all__ = ["ReferencePair", "dependence_equation_system", "reference_pairs"]


@dataclass(frozen=True)
class ReferencePair:
    """An ordered pair of references to the same array, at least one a write.

    ``first`` and ``second`` refer to the textual references; the actual
    source/sink roles of a concrete dependence instance are decided by the
    lexicographic order of the two iterations involved.
    """

    first: ArrayReference
    second: ArrayReference

    def __post_init__(self):
        if self.first.array != self.second.array:
            raise DependenceError(
                f"reference pair mixes arrays {self.first.array!r} and {self.second.array!r}"
            )
        if not (self.first.is_write or self.second.is_write):
            raise DependenceError("at least one reference of a pair must be a write")
        if self.first.dimension != self.second.dimension:
            raise DependenceError(
                f"references to {self.first.array!r} have different dimensionality"
            )

    @property
    def array(self) -> str:
        return self.first.array

    @property
    def kind(self) -> str:
        """Static dependence class of the pair.

        ``output`` for write/write, ``flow_or_anti`` for a write/read pair
        (the concrete direction decides flow vs. anti), ``self`` when the two
        references are the same textual occurrence of a write.
        """
        if self.first.is_write and self.second.is_write:
            if (
                self.first.statement_index == self.second.statement_index
                and self.first.position == self.second.position
            ):
                return "self_output"
            return "output"
        return "flow_or_anti"

    def describe(self) -> str:
        return f"{self.first.describe()}  <->  {self.second.describe()}"

    def __str__(self) -> str:
        return self.describe()


def dependence_equation_system(
    pair: ReferencePair, index_names: Sequence[str]
) -> Tuple[Matrix, Vector]:
    """Build ``(A, c)`` of the system ``x @ A = c`` with ``x = (i, j)``.

    ``i`` are the iteration indices of ``pair.first`` and ``j`` those of
    ``pair.second``; ``A`` has ``2n`` rows and one column per array
    dimension.
    """
    f_matrix, f_offset = pair.first.access_matrix(index_names)
    g_matrix, g_offset = pair.second.access_matrix(index_names)
    return _equation_system(f_matrix, f_offset, g_matrix, g_offset)


def _equation_system(f_matrix, f_offset, g_matrix, g_offset) -> Tuple[Matrix, Vector]:
    """``(A, c)`` of the pair whose subscripts are ``F i + a`` and ``G j + b``.

    ``A = [F^T ; -G^T]`` (``2n x d``) and ``c = b - a``.  The access
    matrices hold the validated ints of the subscripts already.
    """
    matrix = [list(col) for col in zip(*f_matrix)] + [[-v for v in col] for col in zip(*g_matrix)]
    constant = [b - a for a, b in zip(f_offset, g_offset)]
    return matrix, constant


def reference_pairs(nest: LoopNest, include_self: bool = True) -> List[ReferencePair]:
    """All reference pairs of a loop nest that must be analysed.

    Pairs are formed between references to the same array where at least one
    reference writes.  Read/read (input) pairs are ignored because they do not
    constrain the execution order.  When ``include_self`` is True a write
    reference is also paired with itself (output self-dependence), as in the
    paper's Section 4.1 example.
    """
    refs = nest.references()
    pairs: List[ReferencePair] = []
    for idx_a in range(len(refs)):
        for idx_b in range(idx_a, len(refs)):
            ref_a, ref_b = refs[idx_a], refs[idx_b]
            if ref_a.array != ref_b.array:
                continue
            if not (ref_a.is_write or ref_b.is_write):
                continue
            if idx_a == idx_b:
                if not include_self or not ref_a.is_write:
                    continue
            if ref_a.dimension != ref_b.dimension:
                raise DependenceError(
                    f"array {ref_a.array!r} is used with inconsistent dimensionality"
                )
            # The checks above are ReferencePair's own: no need to rerun them.
            pairs.append(trusted_record(ReferencePair, first=ref_a, second=ref_b))
    return pairs
