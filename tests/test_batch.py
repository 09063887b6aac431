"""Serving a batch of loop nests: ``Session.map`` and ``repro batch``.

A batch is one ``Session.map`` call: every job shares the session's
analysis cache, program LRU and executor, so structural duplicates pay one
analysis and a shared-mode pool stays warm across batches.  ``repro batch``
prints one table row per job plus throughput and dedupe summary lines.
"""

import pytest

from repro.api import Session
from repro.cli import main
from repro.core.cache import AnalysisCache
from repro.runtime.arrays import store_for_nest
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

EXAMPLE_42 = """
name: batch-example
loop i1 = 0 .. 4
loop i2 = 0 .. 4
A[i1, i2] = A[i1 - 2, i2 - 1] + 1.0
"""


def _reference_store(nest):
    store = store_for_nest(nest)
    execute_nest(nest, store)
    return store


def _cells(line: str):
    return [cell.strip() for cell in line.split("|")]


def _table(out: str):
    """The header and job rows of a ``repro batch`` table, split into cells."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("job "))
    rows = []
    for line in lines[start + 2:]:
        if not line.strip():
            break
        rows.append(_cells(line))
    return _cells(lines[start]), rows


@pytest.fixture()
def loop_file(tmp_path):
    path = tmp_path / "batch.loop"
    path.write_text(EXAMPLE_42)
    return str(path)


class TestBatchNames:
    def test_repeat_names_rounds(self, loop_file, capsys):
        assert main(["batch", loop_file, loop_file, "--repeat", "3", "--no-cache"]) == 0
        _, rows = _table(capsys.readouterr().out)
        assert len(rows) == 6
        assert [row[0] for row in rows] == [
            f"batch-example#{k}" for k in (1, 1, 2, 2, 3, 3)
        ]

    def test_single_round_keeps_plain_names(self, loop_file, capsys):
        assert main(["batch", loop_file, "--no-cache"]) == 0
        _, rows = _table(capsys.readouterr().out)
        assert [row[0] for row in rows] == ["batch-example"]


class TestBatchSerial:
    def test_results_match_serial_reference(self):
        nests = [case.nest for case in workload_suite(5)[:4]]
        with Session(mode="serial", backend="compiled", workers=1) as session:
            results = session.map(nests)
        assert len(results) == len(nests)
        for nest, result in zip(nests, results):
            assert _reference_store(nest).identical(result.store), nest.name
            assert result.fallback is None
            assert result.iterations == nest.iteration_count()

    def test_structural_duplicates_dedupe_through_cache(self):
        cache = AnalysisCache()
        nests = [case.nest for case in workload_suite(5)[:3]]
        with Session(mode="serial", backend="compiled", cache=cache) as session:
            results = session.map(nests, repeat=3)
        assert len(results) == 9
        assert cache.stats.misses == 3  # one analysis per structure
        assert cache.stats.hits == 6  # every later round hits
        hits = [result.cache_hit for result in results]
        assert hits[:3] == [False, False, False]
        assert all(hits[3:])
        # Hit rows carry the same analysis outcome as their cold row.
        for cold, warm in zip(results[:3], results[3:6]):
            assert warm.report.partition_count == cold.report.partition_count
            assert warm.report.parallel_loop_count == cold.report.parallel_loop_count
            assert warm.checksum == cold.checksum

    def test_throughput_statistics_present(self, loop_file, capsys):
        assert main(
            ["batch", loop_file, "--repeat", "2", "--backend", "interpreter", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        iterations = 2 * 25
        assert f"2 job(s), {iterations} iterations in " in out
        assert "jobs/s" in out and "iterations/s" in out
        assert "mode: serial (" in out
        assert "analysis dedupe: 1 hit(s), 1 miss(es) this batch (50% hit rate)" in out

    def test_table_has_one_cell_per_column(self, loop_file, capsys):
        assert main(["batch", loop_file, "--backend", "compiled", "--no-cache"]) == 0
        columns, rows = _table(capsys.readouterr().out)
        assert columns == [
            "job", "iterations", "chunks", "doall", "partitions", "speedup",
            "analysis", "analyze (ms)", "setup (ms)", "execute (ms)", "backend",
            "checksum",
        ]
        (row,) = rows
        assert len(row) == len(columns)
        assert row[1] == "25"
        assert row[6] == "miss"
        assert row[10] == "compiled"

    def test_explicit_jobs_with_placement(self):
        with Session(mode="serial", backend="compiled") as session:
            (result,) = session.map([example_4_1(4)], names=["inner"], placement="inner")
        assert result.name == "inner"
        assert result.report.placement == "inner"
        assert _reference_store(example_4_1(4)).identical(result.store)


class TestBatchShared:
    def test_shared_mode_serves_batch_bit_identically(self):
        nests = [case.nest for case in workload_suite(4)[:3]]
        with Session(mode="shared", backend="vectorized", workers=2) as session:
            results = session.map(nests, repeat=2)
        assert len(results) == 6
        for nest, result in zip(nests * 2, results):
            assert result.mode == "shared"
            assert result.fallback is None
            assert _reference_store(nest).identical(result.store), nest.name

    def test_persistent_across_batches(self):
        nest = example_4_2(4)
        with Session(mode="shared", backend="compiled", workers=2) as session:
            (first,) = session.map([nest])
            pool = session._executor._pool
            (second,) = session.map([example_4_2(4)])
            assert session._executor._pool is pool  # one pool for both batches
        assert not first.cache_hit
        assert second.cache_hit  # the analysis survived between batches
        assert first.checksum == second.checksum

    def test_repeated_jobs_reuse_one_program(self):
        # Textually identical jobs get the *same* transformed nest and plan
        # objects, so the worker pool's per-program shipping (schedule
        # segments, registration) is paid once.
        nest = example_4_1(4)
        with Session(mode="serial", backend="compiled") as session:
            session.map([nest], repeat=3)
            assert len(session._programs) == 1
            ((transformed, plan),) = session._programs.values()
            session.map([example_4_1(4)])
            assert len(session._programs) == 1
            ((again, plan_again),) = session._programs.values()
        assert again is transformed
        assert plan_again is plan
