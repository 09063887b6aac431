"""Seeded inputs of the three workloads and their interpreter reference.

Everything a workload sends is a function of ``(workload, seed, tiny)``:
the same arguments give the same program sequence in every process, so the
orchestrator (which computes the reference checksums) and the workload
process (which sends the requests) agree without passing the sequence
around.  A program is named by ``(name, n)``; ``n`` is the size argument of
:func:`repro.workloads.workload_suite` for suite programs, and of the row
recurrences ``serve_v0..2`` for the serving mix.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.loopnest.builder import loop_nest
from repro.loopnest.canonical import canonical_hash
from repro.loopnest.nest import LoopNest
from repro.runtime.arrays import store_for_nest
from repro.runtime.interpreter import execute_nest
from repro.workloads import workload_suite

WORKLOADS = ("hot-ex41", "cold-suite", "serve-mix")

#: Initial store contents of every request (the Session default).
INITIALIZER = "index_sum"

Program = Tuple[str, int]


def sizes(workload: str, tiny: bool) -> Dict[str, object]:
    """The size knobs of one workload (``tiny`` is the smoke-test scale)."""
    if workload == "hot-ex41":
        return {"n": 24 if tiny else 256}
    if workload == "cold-suite":
        return {"n_range": (6, 8) if tiny else (12, 24)}
    if workload == "serve-mix":
        if tiny:
            return {"mix": [("example-4.1", 24), ("variable-rank1-3", 16),
                            ("three-deep", 12), ("serve_v0", 16),
                            ("serve_v1", 16), ("serve_v2", 16)]}
        return {"mix": [("example-4.1", 256), ("variable-rank1-3", 192),
                        ("three-deep", 48), ("serve_v0", 192),
                        ("serve_v1", 192), ("serve_v2", 192)]}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


#: Requests per serve-mix block for each program of the mix: the row
#: recurrences come twice as often, so the median request falls inside
#: their latency range instead of in the gap between two programs, where
#: it would jump between them from run to run.  A run sends whole blocks.
SERVE_WEIGHTS = {"serve_v0": 2, "serve_v1": 2, "serve_v2": 2}


def serve_block(tiny: bool) -> List[Program]:
    """One block of the serve-mix request sequence (before shuffling)."""
    return [
        program
        for program in sizes("serve-mix", tiny)["mix"]
        for _ in range(SERVE_WEIGHTS.get(program[0], 1))
    ]


def serve_variant(variant: int, n: int) -> LoopNest:
    """A transcendental row recurrence (the gateway benchmark's program).

    The dependence on ``i2 - 1`` serializes each row, so the plan's chunks
    are the ``n`` rows.
    """
    c = 0.8 + 0.01 * variant
    return (
        loop_nest(f"serve_v{variant}")
        .loop("i1", 0, n - 1)
        .loop("i2", 1, n - 1)
        .statement(
            f"A[i1, i2] = sin(A[i1, i2 - 1]) * 0.5 "
            f"+ cos(A[i1, i2]) * {c} + exp(A[i1, i2] * -0.3)"
        )
        .build()
    )


def build(program: Program) -> LoopNest:
    """A fresh nest object for one ``(name, n)`` program."""
    name, n = program
    if name.startswith("serve_v"):
        return serve_variant(int(name[len("serve_v"):]), n)
    for case in workload_suite(n):
        if case.name == name:
            return case.nest
    raise ValueError(f"unknown program {name!r}")


def suite_names() -> List[str]:
    return [case.name for case in workload_suite(8)]


def distinct_programs(workload: str, tiny: bool) -> List[Program]:
    """Every program the workload can send, in a fixed order."""
    knobs = sizes(workload, tiny)
    if workload == "hot-ex41":
        return [("example-4.1", knobs["n"])]
    if workload == "cold-suite":
        low, high = knobs["n_range"]
        return [(name, n) for n in range(low, high + 1) for name in suite_names()]
    return list(knobs["mix"])


def _balanced(items: List, rng: random.Random) -> Iterator[Tuple[object, bool]]:
    """Endless blocks, each a seeded shuffle of every item exactly once.

    Yields ``(item, starts_block)``.  A run that stops only at block
    boundaries sends the same mix for every seed (only the order changes),
    so a tail percentile does not move with the seed.
    """
    while True:
        block = list(items)
        rng.shuffle(block)
        for index, item in enumerate(block):
            yield item, index == 0


def cold_passes(seed: int, tiny: bool) -> Iterator[Tuple[int, List[str], bool]]:
    """``(n, program order, starts_block)`` of successive cold-suite passes."""
    low, high = sizes("cold-suite", tiny)["n_range"]
    rng = random.Random(seed)
    names = suite_names()
    for n, starts_block in _balanced(list(range(low, high + 1)), rng):
        order = list(names)
        rng.shuffle(order)
        yield n, order, starts_block


def serve_sequence(seed: int, tiny: bool) -> Iterator[Tuple[Program, bool]]:
    """``(program, starts_block)`` of successive serve-mix requests, in
    blocks of ``len(serve_block(tiny))``."""
    return _balanced(serve_block(tiny), random.Random(seed))


def checksum(store) -> float:
    """The Session's store checksum, computed the same way."""
    return sum(float(array.data.sum()) for array in store.values())


def key(program: Program) -> str:
    return f"{program[0]}@{program[1]}"


def references(workload: str, tiny: bool) -> Dict[str, Dict[str, object]]:
    """Interpreter checksum and canonical hash of every program."""
    table = {}
    for program in distinct_programs(workload, tiny):
        nest = build(program)
        store = store_for_nest(nest, initializer=INITIALIZER)
        execute_nest(nest, store)
        table[key(program)] = {
            "name": program[0],
            "n": program[1],
            "canonical_hash": canonical_hash(nest),
            "checksum": checksum(store),
        }
    return table
