"""Zero-copy shared-memory array stores.

Shipping a pickled :class:`~repro.runtime.arrays.ArrayStore` to every
worker process and merging its writes back costs O(store) serialization
per execution.  This module removes that cost: a :class:`SharedArrayStore`
backs every array with a ``multiprocessing.shared_memory`` segment, so worker
processes *attach* to the same physical pages and execute their chunks in
place.  That is legal for exactly the reason the paper's schedule exists —
chunks never access a common cell with at least one write (Lemma 1 /
Theorem 2) — so concurrent in-place execution needs no locking and no merge.

Two sides of the protocol:

* the **owner** (the executor process) builds segments with
  :meth:`SharedArrayStore.from_store`, publishes the picklable
  :class:`SharedStoreSpec`, and eventually calls :meth:`close` and
  :meth:`unlink` (segments are kernel objects; unlink is what frees them);
* **workers** call :meth:`SharedArrayStore.attach` with the spec, getting a
  store whose :class:`~repro.runtime.arrays.OffsetArray` views alias the
  owner's memory.  Attached stores close but never unlink.

:func:`share_ndarray` / :func:`attach_ndarray` are the same protocol for a
single anonymous ndarray — the worker pool uses them to publish the packed
chunk schedule once instead of pickling iteration lists per task.

A note on the ``resource_tracker``: CPython < 3.13 registers segments on
*attach* as well as on create (bpo-39959).  All attachers in this design are
``multiprocessing`` children of the owner, so they share the owner's tracker
process, whose registration cache is a set — the extra registrations are
idempotent no-ops, the owner's ``unlink`` unregisters the name exactly once,
and the tracker still reclaims every segment if the whole process tree dies
abnormally.  Explicitly unregistering on the attach side would *remove* the
shared registration and break that safety net, so none of the attach paths
touch the tracker.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

from repro.exceptions import ExecutionError
from repro.runtime.arrays import ArrayStore, OffsetArray

__all__ = [
    "SharedArraySpec",
    "SharedStoreSpec",
    "SharedNDArraySpec",
    "SharedArrayStore",
    "share_ndarray",
    "attach_ndarray",
]


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable description of one shared array: where and what shape."""

    name: str
    segment: str
    origin: Tuple[int, ...]
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedStoreSpec:
    """Picklable description of a whole shared store.

    ``token`` names this *generation* of segments: attachers cache their
    segment mappings per token, so a fresh set of segments (new token) is
    never confused with a stale cached attachment.
    """

    token: str
    arrays: Tuple[SharedArraySpec, ...]


@dataclass(frozen=True)
class SharedNDArraySpec:
    """Picklable description of one anonymous shared ndarray."""

    segment: str
    shape: Tuple[int, ...]
    dtype: str


def share_ndarray(array: np.ndarray) -> Tuple[shared_memory.SharedMemory, SharedNDArraySpec]:
    """Copy ``array`` into a fresh shared segment; returns (segment, spec).

    The caller owns the segment: keep the handle alive while any attacher
    uses it, and ``unlink()`` it when done.
    """
    array = np.ascontiguousarray(array)
    segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    return segment, SharedNDArraySpec(segment.name, tuple(array.shape), str(array.dtype))


def attach_ndarray(spec: SharedNDArraySpec) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach to a published ndarray; returns (segment, aliasing view).

    Keep the returned segment alive for as long as the view is used.
    """
    segment = shared_memory.SharedMemory(name=spec.segment)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    return segment, view


class SharedArrayStore(ArrayStore):
    """An :class:`ArrayStore` whose arrays live in shared-memory segments.

    Behaves exactly like a regular store for every backend (indexing,
    ``items()``, window checks) — only the backing pages differ.  ``copy()``
    (inherited) returns a plain heap :class:`ArrayStore`, which is also what
    :meth:`to_store` does explicitly for round-tripping.
    """

    def __init__(self, spec: SharedStoreSpec, segments: Dict[str, shared_memory.SharedMemory], owner: bool):
        super().__init__()
        self._spec = spec
        self._segments = segments
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(cls, store: ArrayStore) -> "SharedArrayStore":
        """Copy a plain store into freshly created shared segments (owner side)."""
        token = secrets.token_hex(8)
        segments: Dict[str, shared_memory.SharedMemory] = {}
        specs = []
        try:
            for name, array in store.items():
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.data.nbytes)
                )
                segments[name] = segment
                view = np.ndarray(array.data.shape, dtype=array.data.dtype, buffer=segment.buf)
                view[...] = array.data
                specs.append(
                    SharedArraySpec(
                        name=name,
                        segment=segment.name,
                        origin=array.origin,
                        shape=tuple(array.data.shape),
                        dtype=str(array.data.dtype),
                    )
                )
        except BaseException:
            for segment in segments.values():
                try:
                    segment.close()
                    segment.unlink()
                except OSError:
                    pass
            raise
        shared = cls(SharedStoreSpec(token, tuple(specs)), segments, owner=True)
        for spec, (name, array) in zip(specs, store.items()):
            shared[name] = OffsetArray.wrap(
                array.origin,
                np.ndarray(array.data.shape, dtype=array.data.dtype, buffer=segments[name].buf),
            )
        return shared

    @classmethod
    def attach(cls, spec: SharedStoreSpec) -> "SharedArrayStore":
        """Attach to segments published by another process (non-owner side)."""
        segments: Dict[str, shared_memory.SharedMemory] = {}
        try:
            shared = cls(spec, segments, owner=False)
            for array_spec in spec.arrays:
                segment = shared_memory.SharedMemory(name=array_spec.segment)
                segments[array_spec.name] = segment
                view = np.ndarray(
                    array_spec.shape, dtype=np.dtype(array_spec.dtype), buffer=segment.buf
                )
                shared[array_spec.name] = OffsetArray.wrap(array_spec.origin, view)
        except BaseException:
            for segment in segments.values():
                try:
                    segment.close()
                except OSError:
                    pass
            raise
        return shared

    # ------------------------------------------------------------------ #
    # data movement
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> SharedStoreSpec:
        return self._spec

    @property
    def is_owner(self) -> bool:
        return self._owner

    def matches(self, store: ArrayStore) -> bool:
        """True if ``store`` has the same arrays/origins/shapes/dtypes.

        A matching store can be loaded in place (:meth:`load_from`), so the
        executor reuses one generation of segments across runs.
        """
        if set(store.keys()) != {s.name for s in self._spec.arrays}:
            return False
        for spec in self._spec.arrays:
            array = store[spec.name]
            if (
                array.origin != spec.origin
                or tuple(array.data.shape) != spec.shape
                or str(array.data.dtype) != spec.dtype
            ):
                return False
        return True

    def load_from(self, store: ArrayStore) -> None:
        """Copy a plain store's contents into the shared segments (memcpy)."""
        if not self.matches(store):
            raise ExecutionError("store layout does not match the shared segments")
        for name, array in store.items():
            self[name].data[...] = array.data

    def copy_to(self, store: ArrayStore) -> None:
        """Copy the shared contents back into a plain store in place."""
        if not self.matches(store):
            raise ExecutionError("store layout does not match the shared segments")
        for name, array in store.items():
            array.data[...] = self[name].data

    def to_store(self) -> ArrayStore:
        """A plain heap-backed deep copy (round-trip of :meth:`from_store`)."""
        return ArrayStore.copy(self)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Detach from the segments (both sides).  Idempotent."""
        if self._closed:
            return
        # The ndarray views must be dropped before the memoryview underneath
        # each segment can release its buffer.
        self.clear()
        for segment in self._segments.values():
            try:
                segment.close()
            except (OSError, BufferError):
                pass
        self._closed = True

    def unlink(self) -> None:
        """Free the kernel objects (owner side; attached stores must not)."""
        for segment in self._segments.values():
            try:
                segment.unlink()
            except (OSError, FileNotFoundError):
                pass

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        if self._owner:
            self.unlink()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            closed = self._closed
        except AttributeError:
            return
        if not closed:
            self.close()
            if self._owner:
                self.unlink()
