"""Validation helpers for exact integer data.

The analysis side of the library works exclusively with Python integers
(arbitrary precision) arranged in lists of lists.  These helpers normalise
user input (which may be NumPy arrays, tuples, numpy integer scalars, ...)
into that canonical representation and raise :class:`repro.exceptions.ShapeError`
on malformed data.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.exceptions import ShapeError

__all__ = [
    "check_int",
    "check_int_vector",
    "check_int_matrix",
    "check_square",
    "check_same_length",
    "as_int_list",
    "as_int_table",
    "trusted_record",
]

_INTEGRAL_TYPES = (int, np.integer)


def check_int(value, name: str = "value") -> int:
    """Return ``value`` as a Python ``int``.

    Accepts Python ints, NumPy integer scalars and integral floats
    (e.g. ``3.0``); anything else raises :class:`ShapeError`.
    """
    if isinstance(value, bool):
        raise ShapeError(f"{name} must be an integer, got bool {value!r}")
    if isinstance(value, _INTEGRAL_TYPES):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ShapeError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def as_int_list(values: Iterable, name: str = "vector") -> List[int]:
    """Normalise an iterable of integers into a new list of Python ints.

    Entries that are all exact ``int`` s are checked in one scan and returned
    as a copied list; any other entry sends every entry through
    :func:`check_int`.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ShapeError(f"{name} must be one-dimensional, got shape {values.shape}")
        values = values.tolist()
    try:
        seq = list(values)
    except TypeError as exc:  # pragma: no cover - defensive
        raise ShapeError(f"{name} must be an iterable of integers") from exc
    for value in seq:
        if type(value) is not int:
            return [check_int(v, f"{name}[{k}]") for k, v in enumerate(seq)]
    return seq


def as_int_table(rows: Iterable, name: str = "matrix") -> List[List[int]]:
    """Normalise a 2-D iterable into a rectangular list of lists of ints.

    An empty matrix (zero rows) is allowed and returned as ``[]``.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2:
            raise ShapeError(f"{name} must be two-dimensional, got shape {rows.shape}")
        rows = rows.tolist()
    table = [as_int_list(row, f"{name}[{k}]") for k, row in enumerate(rows)]
    if table:
        width = len(table[0])
        for k, row in enumerate(table):
            if len(row) != width:
                raise ShapeError(
                    f"{name} must be rectangular: row 0 has {width} entries, "
                    f"row {k} has {len(row)}"
                )
    return table


def trusted_record(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` (every
    one of them, validated already), set through the instance dict rather
    than the generated ``__init__``'s ``object.__setattr__`` per field."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


def check_int_vector(values: Sequence, length: int = None, name: str = "vector") -> List[int]:
    """Validate a vector of integers, optionally enforcing its length."""
    vec = as_int_list(values, name)
    if length is not None and len(vec) != length:
        raise ShapeError(f"{name} must have length {length}, got {len(vec)}")
    return vec


def check_int_matrix(
    rows: Sequence,
    n_rows: int = None,
    n_cols: int = None,
    name: str = "matrix",
) -> List[List[int]]:
    """Validate an integer matrix, optionally enforcing its shape."""
    table = as_int_table(rows, name)
    if n_rows is not None and len(table) != n_rows:
        raise ShapeError(f"{name} must have {n_rows} rows, got {len(table)}")
    if n_cols is not None:
        actual = len(table[0]) if table else 0
        if table and actual != n_cols:
            raise ShapeError(f"{name} must have {n_cols} columns, got {actual}")
    return table


def check_square(rows: Sequence, name: str = "matrix") -> List[List[int]]:
    """Validate that a matrix is square and return it normalised."""
    table = as_int_table(rows, name)
    if not table or len(table) != len(table[0]):
        shape = (len(table), len(table[0]) if table else 0)
        raise ShapeError(f"{name} must be square, got shape {shape}")
    return table


def check_same_length(a: Sequence, b: Sequence, name_a: str = "a", name_b: str = "b") -> None:
    """Raise :class:`ShapeError` unless the two sequences have equal length."""
    if len(a) != len(b):
        raise ShapeError(
            f"{name_a} and {name_b} must have the same length, got {len(a)} and {len(b)}"
        )
