"""Uniform loop-source resolution for the :mod:`repro.api` surface.

Every :class:`~repro.api.session.Session` method accepts a *source* instead
of insisting on a built :class:`~repro.loopnest.nest.LoopNest`:

* a built :class:`LoopNest` (used as-is),
* a path to a ``.loop`` description file (``str`` ending in ``.loop`` or
  any :class:`os.PathLike`),
* loop-description text itself (recognized by a newline or a leading
  ``name:`` / ``loop `` declaration),
* a workload factory — any callable ``factory(n) -> LoopNest`` such as the
  functions in :mod:`repro.workloads` (``n`` supplies the size), and
* any object carrying a ``.nest`` attribute (a
  :class:`~repro.workloads.suite.WorkloadCase`, ...).

:func:`resolve_source` is the single place those spellings converge, so the
CLI, the gateway and library callers all accept exactly the same inputs.  The textual loop-description parser (:func:`parse_loop_text` /
:func:`parse_loop_file`) lives here as well; :mod:`repro.cli` re-exports it
unchanged.

Loop description format (one item per line, ``#`` starts a comment)::

    name: my-loop
    loop i1 = -10 .. 10
    loop i2 = 0 .. i1
    A[i1, i2] = A[i1 - 1, i2 + 2] + 1.0

Loops are declared outermost first; every remaining non-empty line is a
body statement.  Bounds may reference outer loop indices.

The :data:`LoopSource` alias names the union of the accepted spellings;
they all land on the same nest:

    >>> from repro.api import resolve_source
    >>> from repro.workloads import example_4_1
    >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
    >>> resolve_source(text).depth
    2
    >>> resolve_source(example_4_1, n=8).name
    'example-4.1(N=8)'
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Union

from repro.exceptions import LoopNestError
from repro.loopnest.builder import LoopNestBuilder
from repro.loopnest.nest import LoopNest

__all__ = [
    "LoopSource",
    "parse_loop_text",
    "parse_loop_file",
    "resolve_source",
    "resolve_sources",
]

#: Anything :func:`resolve_source` accepts.
LoopSource = Union[LoopNest, str, os.PathLike, object]


def parse_loop_text(text: str, default_name: str = "loop") -> LoopNest:
    """Parse the textual loop description format into a :class:`LoopNest`.

        >>> nest = parse_loop_text("name: demo\\nloop i = 0 .. 3\\nA[i] = A[i] + 1.0")
        >>> nest.name, nest.depth
        ('demo', 1)
    """
    builder = LoopNestBuilder(default_name)
    name = default_name
    statements = 0
    loops = 0
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("name:"):
            name = line.split(":", 1)[1].strip() or default_name
            builder._name = name  # the builder has no setter; adjust directly
            continue
        if line.lower().startswith("loop "):
            if statements:
                raise LoopNestError(
                    f"line {line_number}: loop declared after body statements "
                    "(the nest must be perfectly nested)"
                )
            rest = line[5:]
            try:
                index_part, bounds_part = rest.split("=", 1)
                lower_text, upper_text = bounds_part.split("..", 1)
            except ValueError as exc:
                raise LoopNestError(
                    f"line {line_number}: expected 'loop <index> = <lower> .. <upper>', got {line!r}"
                ) from exc
            builder.loop(index_part.strip(), lower_text.strip(), upper_text.strip())
            loops += 1
            continue
        if loops == 0:
            raise LoopNestError(
                f"line {line_number}: body statement before any 'loop' declaration"
            )
        builder.statement(line)
        statements += 1
    if loops == 0:
        raise LoopNestError("the loop description declares no loops")
    if statements == 0:
        raise LoopNestError("the loop description has no body statements")
    return builder.build()


def parse_loop_file(path: Union[str, os.PathLike]) -> LoopNest:
    """Read and parse a loop description file (name defaults to the stem).

        >>> import os, tempfile
        >>> path = os.path.join(tempfile.mkdtemp(), "tiny.loop")
        >>> _ = open(path, "w").write("loop i = 0 .. 3\\nA[i] = A[i] + 1.0\\n")
        >>> parse_loop_file(path).name
        'tiny'
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    name = str(path).rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return parse_loop_text(text, default_name=name)


def _looks_like_loop_text(text: str) -> bool:
    """Loop-description text is multi-line or starts with a declaration."""
    if "\n" in text.strip():
        return True
    head = text.lstrip().lower()
    return head.startswith("name:") or head.startswith("loop ")


def resolve_source(
    source: LoopSource,
    *,
    name: Optional[str] = None,
    n: Optional[int] = None,
) -> LoopNest:
    """Turn any accepted loop-source spelling into a built :class:`LoopNest`.

    Parameters
    ----------
    source:
        A :class:`LoopNest`, a ``.loop`` file path, loop-description text, a
        workload factory ``factory(n) -> LoopNest``, or an object with a
        ``.nest`` attribute.
    name:
        Overrides the nest's default name for text sources (file sources
        default to the file stem, built nests keep their own name).
    n:
        Size argument for workload factories; ignored for the other kinds.

        >>> resolve_source("loop i = 0 .. 3\\nA[i] = A[i] * 2.0", name="tiny").name
        'tiny'
        >>> from repro.workloads import example_4_1
        >>> resolve_source(example_4_1, n=8).name
        'example-4.1(N=8)'
    """
    if isinstance(source, LoopNest):
        return source
    nested = getattr(source, "nest", None)
    if isinstance(nested, LoopNest):
        return nested
    if callable(source):
        nest = source(n) if n is not None else source()
        if not isinstance(nest, LoopNest):
            raise LoopNestError(
                f"workload factory {source!r} returned {type(nest).__name__}, "
                "expected a LoopNest"
            )
        return nest
    if isinstance(source, os.PathLike):
        return parse_loop_file(source)
    if isinstance(source, str):
        if _looks_like_loop_text(source):
            return parse_loop_text(source, default_name=name or "loop")
        if source.endswith(".loop") or os.path.exists(source):
            return parse_loop_file(source)
        raise LoopNestError(
            f"cannot resolve loop source {source!r}: not an existing file, "
            "not a .loop path, and not loop-description text (expected "
            "'loop <index> = <lower> .. <upper>' declarations)"
        )
    raise LoopNestError(
        f"cannot resolve loop source of type {type(source).__name__}: expected "
        "a LoopNest, a .loop file path, loop-description text, a workload "
        "factory, or an object with a .nest attribute"
    )


def resolve_sources(
    sources: Iterable[LoopSource], *, n: Optional[int] = None
) -> List[LoopNest]:
    """Resolve a batch of sources in order (see :func:`resolve_source`).

        >>> from repro.workloads import example_4_1, example_4_2
        >>> [nest.name for nest in resolve_sources([example_4_1, example_4_2], n=8)]
        ['example-4.1(N=8)', 'example-4.2(N=8)']
    """
    return [resolve_source(source, n=n) for source in sources]
