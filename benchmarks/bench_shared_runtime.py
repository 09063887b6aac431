"""Shared-memory runtime benchmark — persistent pool vs. serial execution.

Measures the zero-copy runtime (:mod:`repro.runtime.shared` /
:mod:`repro.runtime.pool`) against the cheapest alternative that runs the
*same* plan through the *same* backend: serial execution in-process.

* every measured run is **bit-identical** to the serial interpreter
  reference (the differential contract of the runtime), and a worker crash
  fallback fails the benchmark;
* ``shared_vs_serial`` (serial wall clock over warm shared-pool wall clock)
  is printed together with ``os.cpu_count()``.  It carries no threshold:
  the pool can only beat serial execution with a core per worker, and the
  ratio has not been measured on a host with 4 or more cores.

Run under pytest-benchmark::

    pytest benchmarks/bench_shared_runtime.py --benchmark-only

or standalone::

    python benchmarks/bench_shared_runtime.py --size 10
    python benchmarks/bench_shared_runtime.py --size 64 --workers 4 --json results.json
"""

import argparse
import json
import os
import sys

from repro.experiments.shared_runtime import (
    shared_runtime_comparison,
    shared_runtime_table,
)

# The reference configuration: example 4.1 at N=64 (16641 iterations over
# ~512 independent chunks) with 4 workers.
SPEEDUP_N = 64
SPEEDUP_WORKERS = 4


def _measure(n: int, workers: int = SPEEDUP_WORKERS, repetitions: int = 3):
    return shared_runtime_comparison(n=n, workers=workers, repetitions=repetitions)


def _check(result):
    assert result["serial_identical"], "serial run diverged from the interpreter"
    assert result["shared_identical"], "shared-pool run diverged from the interpreter"
    assert result["shared_fallback"] is None, result["shared_fallback"]


def _json_payload(result):
    return {
        "name": "shared_runtime",
        "metrics": {"shared_vs_serial": result["shared_vs_serial"]},
        "details": result,
    }


def test_shared_runtime(benchmark):
    result = benchmark.pedantic(
        _measure, args=(SPEEDUP_N, SPEEDUP_WORKERS), rounds=1, iterations=1
    )
    _check(result)
    benchmark.extra_info["shared_vs_serial"] = round(result["shared_vs_serial"], 2)
    benchmark.extra_info["cpu_count"] = result["cpu_count"]
    benchmark.extra_info["shared_ms"] = round(result["shared_seconds"] * 1000.0, 2)
    benchmark.extra_info["serial_ms"] = round(result["serial_seconds"] * 1000.0, 2)
    print()
    print(shared_runtime_table(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", type=int, default=24, help="workload size N (default: 24)"
    )
    parser.add_argument(
        "--workers", type=int, default=SPEEDUP_WORKERS,
        help=f"worker count of the shared pool (default: {SPEEDUP_WORKERS})",
    )
    parser.add_argument(
        "--repetitions", type=int, default=3, help="timing repetitions (default: 3)"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the measurements as machine-readable JSON",
    )
    args = parser.parse_args(argv)
    result = _measure(args.size, workers=args.workers, repetitions=args.repetitions)
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_json_payload(result), handle, indent=2)
    _check(result)
    print(shared_runtime_table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
