"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench/selftest.py``.

Each test runs ``run.py`` at smoke-test size (``--tiny``) through the same
code path as a full run, in a subprocess, and reads its result line.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hosttime  # noqa: E402
import programs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


def bench(*args, cwd=ROOT, env=None):
    """Run the benchmark; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result(*args):
    code, lines, stderr = bench(*args)
    assert code == 0, stderr
    return json.loads(lines[-1])


def test_the_contract_names_runnable_workloads():
    # hot-ex41 is not in BENCHMARK.json (see README.md) but stays runnable.
    assert {w["name"] for w in CONTRACT["workloads"]} < set(programs.WORKLOADS)


@pytest.mark.parametrize("workload", programs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line = result("--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        assert line["metrics"]["error_rate"]["value"] == 0.0
        assert line["metrics"]["trace.unnested_requests"]["value"] == 0.0


def test_end_to_end_metrics_are_never_zero():
    line = result("--workload", "hot-ex41", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--tiny")
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_corrupted_reference_raises_error_rate(trace):
    line = result("--workload", "hot-ex41", "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--tiny", "--corrupt-reference")
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1
    if trace:
        assert line["metrics"]["error_rate"]["value"] == 1.0


def test_hot_spans_add_up_to_the_session_wall():
    line = result("--workload", "hot-ex41", "--seed", "7", "--seconds", "2",
                  "--trace", "1", "--tiny")
    metrics = line["metrics"]
    assert metrics["trace.self_sum_error_pct"]["value"] <= 5.0
    assert metrics["trace.unnested_requests"]["value"] == 0.0
    assert metrics["trace.orphan_spans"]["value"] == 0.0
    assert metrics["codegen.native_share"]["value"] == 1.0


def _self_sum_error(layer_parent: int) -> float:
    """Error of the self-sum check for one synthetic 10 s request whose
    ``runtime.store_init`` span has parent ``layer_parent``."""
    tracer = spans.Tracer()
    client = workload.Client(tracer, {})
    record = workload.Record("p", 0.0, True)
    record.rid, record.end, record.ok = 1, 10.0, True
    client.records.append(record)
    tracer.record(1, 1, 0, "request", 0.0, 10.0)
    tracer.record(1, 2, 1, "api.session_run", 0.0, 10.0)
    tracer.record(1, 3, 2, "runtime.executor", 1.0, 9.0)
    tracer.record(1, 4, layer_parent, "runtime.store_init", 2.0 if layer_parent == 3
                  else 9.0, 8.0 if layer_parent == 3 else 9.5)
    kernel = {"hits": 0, "misses": 0, "builds": 0, "build_seconds": 0.0}
    samples = {"pending": [], "queued_groups": [], "rejected": 0}
    metrics = workload.per_layer(client, tracer, kernel, kernel, samples)
    return metrics["trace.self_sum_error_pct"]


def test_self_sum_check_catches_a_double_counted_layer():
    # store init called by Session.run: the layer metrics add up.
    assert _self_sum_error(layer_parent=2) < 1e-9
    # store init inside the executor: both metrics count its 6 s.
    assert _self_sum_error(layer_parent=3) == pytest.approx(60.0)


def test_refuses_to_measure_a_fallback():
    env = dict(os.environ, REPRO_NATIVE_ENGINE="none")
    code, lines, stderr = bench("--workload", "hot-ex41", "--seed", "7",
                                "--seconds", "1", "--trace", "0", "--tiny", env=env)
    assert code != 0
    assert "no native engine" in stderr
    assert not any(line.startswith("{") for line in lines)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("--workload", "hot-ex41", "--seed", "7", "--seconds", "1",
                           "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_sequences_are_seeded_and_balanced():
    def passes(seed):
        return list(itertools.islice(programs.cold_passes(seed, False), 13))

    first = passes(5)
    assert first == passes(5) != passes(6)
    assert sorted(n for n, _, _ in first) == list(range(12, 25))
    assert [starts for _, _, starts in first] == [True] + [False] * 12
    block = programs.serve_block(False)
    drawn = list(itertools.islice(programs.serve_sequence(5, False), len(block)))
    assert sorted(program for program, _ in drawn) == sorted(block)
    assert [starts for _, starts in drawn] == [True] + [False] * (len(block) - 1)


def test_stolen_share_weights_cpus_by_busy_time():
    # CPU 0 ran 75 ticks and lost 25; idle CPU 1's 10 stolen ticks weigh 0.
    assert hosttime.stolen_share([(0, 0), (0, 0)], [(75, 25), (0, 10)]) == 0.25
    assert hosttime.stolen_share([(5, 5)], [(5, 5)]) == 0.0


def test_dedicated_seconds_takes_each_window_at_its_share():
    windows = hosttime.StealWindows()
    windows._times, windows._shares = [0.0, 1.0, 2.0], [0.5, 0.0]
    assert windows.dedicated_seconds(0.5, 1.5) == pytest.approx(0.25 + 0.5)
    assert windows.dedicated_seconds(1.5, 3.0) == pytest.approx(1.5)
    assert windows.dedicated_seconds(-1.0, 0.5) == pytest.approx(0.75)


def test_thread_clock_leaves_out_sleep():
    clock, wall = hosttime.thread_seconds(), time.perf_counter()
    time.sleep(0.05)
    assert hosttime.thread_seconds() - clock < (time.perf_counter() - wall) / 2


def test_percentile_matches_linear_interpolation():
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.percentile([5.0], 99) == 5.0
    assert run.percentile(list(range(101)), 99) == 99.0
