"""End-to-end benchmark of the PDM loop-parallelization request pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-suite --seed 1 --seconds 42 --trace 0

Workloads (see ``perfbench/README.md``): ``cold-suite`` and ``serve-mix``,
which ``BENCHMARK.json`` names, and ``hot-ex41``.  The orchestrator

1. computes the interpreter reference checksum of every program the seeded
   workload can send (not part of any timing; kept per source tree under
   ``.bench_out/references``);
2. runs the workload in fresh Python processes (:mod:`workload`), each
   with an empty private native-kernel cache, ``REPRO_WORKERS`` and
   ``OMP_NUM_THREADS`` pinned to ``os.cpu_count()`` and
   ``OMP_WAIT_POLICY=PASSIVE``.  With ``--trace 0``
   three processes one after the other each set up and measure a third of
   ``--seconds``; latencies and counts are pooled, ``setup_s`` and
   ``peak_rss_mb`` are medians over the processes.  Times are taken on
   the dedicated-host clock of :mod:`hosttime`, which leaves out the time
   the host's hypervisor took the CPU away.  ``--trace 1`` runs one
   process for the whole ``--seconds``;
3. prints every metric by name and unit, the correctness check, and as the
   last line one JSON object: the ``end_to_end`` metrics ``BENCHMARK.json``
   declares with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.

Every run leaves a record (environment, seed, program list with canonical
hashes, metrics, and with ``--trace 1`` the spans) under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import hosttime

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: Measuring processes of a ``--trace 0`` run.
PROCESSES = 3
#: Hard ceiling on one invocation, below the 180 s a run may take.
RUN_BUDGET_S = 170.0


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for a run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    return {m["name"]: m["unit"]
            for m in contract["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    """Hash of the program sources and of the benchmark's program list."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, "programs.py")]
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        paths += [os.path.join(folder, name) for name in sorted(files)
                  if name.endswith(".py")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def load_references(programs, workload: str, tiny: bool) -> dict:
    """The interpreter reference of every program the workload can send.

    Computed once per source tree and kept under ``.bench_out/references``:
    the interpreter is slow, and the same checkout is run many times.
    """
    folder = os.path.join(OUT, "references")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(
        folder, f"{workload}{'-tiny' if tiny else ''}-{source_digest()}.json"
    )
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    table = programs.references(workload, tiny)
    scratch = path + f".{os.getpid()}"
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(table, handle)
    os.replace(scratch, path)
    return table


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class ChildFailed(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spawn(args, run_dir: str, references: str, tag: str, seconds: float,
          deadline: float) -> dict:
    """Run one workload process to completion; returns its JSON report."""
    cpus = str(os.cpu_count() or 1)
    cache = tempfile.mkdtemp(prefix=f"kernels-{tag}-", dir=run_dir)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([SRC, HERE]),
        "REPRO_NATIVE_CACHE": cache,
        "REPRO_WORKERS": cpus,
        "OMP_NUM_THREADS": cpus,
        # Idle OpenMP threads sleep instead of spinning on the few CPUs the
        # gateway's Python threads also need.
        "OMP_WAIT_POLICY": "PASSIVE",
    })
    out = os.path.join(run_dir, f"{tag}.json")
    command = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
        "--references", references, "--out", out,
    ]
    if args.tiny:
        command.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(4, "out of time before starting a workload process")
    command += ["--spawned-cpu", json.dumps(hosttime.cpu_times()),
                "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(4, f"workload process {tag} exceeded {timeout:.0f}s")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(
            proc.returncode,
            f"workload process {tag} exited with {proc.returncode}:\n"
            f"{proc.stderr.strip()}",
        )
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("hot-ex41", "cold-suite", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes and a single set-up process")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb every reference checksum (checks the checker)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"cannot benchmark: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import programs

    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-trace{args.trace}-", dir=OUT
    )
    started = time.monotonic()
    references = load_references(programs, args.workload, args.tiny)
    reference_s = time.monotonic() - started
    if args.corrupt_reference:
        for entry in references.values():
            entry["checksum"] += 1.0
    references_path = os.path.join(run_dir, "references.json")
    with open(references_path, "w", encoding="utf-8") as handle:
        json.dump(references, handle)

    processes = 1 if (args.trace or args.tiny) else PROCESSES
    reports = []
    try:
        for index in range(processes):
            reports.append(spawn(args, run_dir, references_path, f"process{index}",
                                 args.seconds / processes, deadline))
    except ChildFailed as failure:
        print(str(failure), file=sys.stderr)
        return failure.code or 1

    report = reports[0]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    latencies = [value for r in reports for value in r["latencies_s"]]
    p99 = percentile(latencies, 99)
    walls = [value for r in reports for value in r["wall_latencies_s"]]
    wall_s = sum(r["wall_s"] for r in reports)
    dedicated_s = sum(r["dedicated_s"] for r in reports)
    pooled = {
        "samples": len(latencies),
        "samples_beyond_p99": sum(1 for value in latencies if value > p99),
        # The same figures on the wall clock, host steal included.
        "wall_latency_p50_ms": percentile(walls, 50) * 1e3,
        "wall_latency_p99_ms": percentile(walls, 99) * 1e3,
        "wall_throughput_rps": len(walls) / wall_s if wall_s else 0.0,
        "wall_setup_s": [r["setup_wall_s"] for r in reports],
        "host_stolen_share": 1.0 - dedicated_s / wall_s if wall_s else 0.0,
    }
    if args.trace:
        values = report["per_layer"]
    else:
        values = {
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p99_ms": p99 * 1e3,
            "throughput_rps": len(latencies) / dedicated_s,
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        }
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"measured metrics {sorted(values)} differ from the declared "
              f"{sorted(units)}", file=sys.stderr)
        return 5
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    correct = failed == 0 and attempted > 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": git_commit(),
        "environment": report["environment"],
        "programs": list(references.values()),
        "sent": [r["sent"] for r in reports],
        "reference_s": reference_s,
        "setup_times_s": [r["setup_s"] for r in reports],
        "end_to_end_detail": pooled,
        "attempted": attempted,
        "failed": failed,
        "errors": sorted({e for r in reports for e in r["errors"]})[:10],
        "metrics": metrics,
        "spans_file": report.get("spans_file"),
    }
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    env = report["environment"]
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g}s  "
          f"trace {args.trace}  engine {env['engine']}  openmp {env['openmp']}  "
          f"cpus {env['cpu_count']}")
    print(f"requests: {attempted} attempted, {failed} failed in {processes} "
          f"process(es) ({pooled['samples']} untraced latency samples, "
          f"{pooled['samples_beyond_p99']} beyond p99); the host took "
          f"{pooled['host_stolen_share']:.1%} of the timed wall clock")
    print(f"check vs interpreter reference ({len(references)} program(s), "
          f"{reference_s:.2f}s to compute): {'ok' if correct else 'FAILED'}")
    for error in record["errors"]:
        print(f"  error: {error}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"record: {os.path.relpath(os.path.join(run_dir, 'record.json'), ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
