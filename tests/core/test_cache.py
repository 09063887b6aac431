"""Tests for the memoizing analysis cache."""

import pytest

from repro.core.cache import AnalysisCache, default_cache
from repro.core.pipeline import analyze_nest
from repro.loopnest.canonical import rename_nest_indices
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.kernels import wavefront_recurrence
from repro.workloads.suite import workload_suite


class TestCacheCorrectness:
    def test_warm_reports_equal_cold_runs_across_suite(self):
        cache = AnalysisCache()
        cases = workload_suite(6)
        cold = [analyze_nest(case.nest) for case in cases]
        for case in cases:
            cache.analyze(case.nest)
        assert cache.stats.misses == len(cases)
        assert cache.stats.hits == 0
        warm = [cache.analyze(case.nest)[0] for case in cases]
        assert cache.stats.hits == len(cases)
        for case, cold_report, warm_report in zip(cases, cold, warm):
            assert warm_report == cold_report
            assert warm_report.nest is case.nest
            assert warm_report.summary() == cold_report.summary()
            assert warm_report.transform_is_legal()

    def test_structural_hit_rebinds_to_querying_nest(self):
        cache = AnalysisCache()
        nest = example_4_1(6)
        renamed = rename_nest_indices(nest, ["a", "b"]).rename("other-name")
        first, _ = cache.analyze(nest)
        second, _ = cache.analyze(renamed)
        assert cache.stats.hits == 1
        assert second.nest is renamed
        assert second.pdm.index_names == ("a", "b")
        assert second.transform == first.transform
        assert second.parallel_levels == first.parallel_levels
        assert second.partition_count == first.partition_count
        # The rebound report is indistinguishable from a cold run.
        assert second == analyze_nest(renamed)

    def test_placements_key_separately(self):
        cache = AnalysisCache()
        nest = example_4_1(6)
        outer, _ = cache.analyze(nest, placement="outer")
        inner, _ = cache.analyze(nest, placement="inner")
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0
        assert len(cache) == 2
        assert outer.parallel_levels != inner.parallel_levels

    def test_mutating_a_returned_report_does_not_corrupt_the_cache(self):
        cache = AnalysisCache()
        nest = example_4_2(6)
        first, _ = cache.analyze(nest)
        first.transform[0][0] = 999
        first.transformed_pdm[0][0] = 999
        first.pdm.matrix[0][0] = 999
        second, _ = cache.analyze(nest)
        assert second.transform[0][0] != 999
        assert second.transformed_pdm[0][0] != 999
        assert second.pdm.matrix[0][0] != 999
        assert second == analyze_nest(nest)

    def test_mutating_algorithm1_and_steps_does_not_corrupt_the_cache(self):
        # example 4.1 has a rank-deficient PDM, so the report carries an
        # Algorithm1Result whose matrices alias report.transform on cold runs.
        cache = AnalysisCache()
        nest = example_4_1(6)
        first, _ = cache.analyze(nest)
        first.algorithm1.transform[0][0] += 100
        first.algorithm1.sequential_block[0][0] += 100
        second, _ = cache.analyze(nest)
        cold = analyze_nest(nest)
        assert second.algorithm1.transform == cold.algorithm1.transform
        assert second.algorithm1.sequential_block == cold.algorithm1.sequential_block

    def test_step_matrices_are_immutable(self):
        # Recorded step matrices are frozen tuples, so shared steps cannot
        # be used to corrupt cache entries.
        report = analyze_nest(example_4_1(6))
        for step in report.steps:
            if step.matrix:
                with pytest.raises(TypeError):
                    step.matrix[0][0] = 999


class TestCachePolicy:
    def test_lru_eviction(self):
        cache = AnalysisCache(maxsize=2)
        nests = [example_4_1(6), example_4_2(6), wavefront_recurrence(6)]
        for nest in nests:
            cache.analyze(nest)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (example 4.1) was evicted: querying it misses again.
        cache.analyze(nests[0])
        assert cache.stats.misses == 4
        cache.analyze(nests[2])  # still resident
        assert cache.stats.hits == 1

    def test_clear_resets_entries_and_stats(self):
        cache = AnalysisCache()
        cache.analyze(example_4_1(6))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_describe_mentions_hit_rate(self):
        cache = AnalysisCache()
        cache.analyze(example_4_1(6))
        cache.analyze(example_4_1(6))
        assert "hit rate" in cache.describe()
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            AnalysisCache(maxsize=0)


class TestBatchOfAnalyses:
    def test_structural_duplicates_share_one_analysis(self):
        cache = AnalysisCache()
        a = example_4_1(6)
        b = example_4_2(6)
        a_clone = rename_nest_indices(example_4_1(6), ["x", "y"])
        outcomes = [cache.analyze(nest) for nest in (a, b, a_clone)]
        assert [report.nest for report, _ in outcomes] == [a, b, a_clone]
        assert [hit for _, hit in outcomes] == [False, False, True]
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1
        assert outcomes[0][0].partition_count == outcomes[2][0].partition_count

    def test_default_cache_is_shared(self):
        assert default_cache() is default_cache()
