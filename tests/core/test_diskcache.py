"""The durable disk tier: versioned envelopes, atomicity, cache wiring."""

import os
import pickle

from repro.core.cache import AnalysisCache
from repro.core.diskcache import DiskCache, default_spec_version
from repro.core.pipeline import ParallelizationReport
from repro.plan import ExecutionPlan
from repro.workloads.paper_examples import example_4_1, example_4_2


class TestDiskCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("missing") is None
        cache.put("key", {"answer": 42})
        assert cache.get("key") == {"answer": 42}
        assert len(cache) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_entries_live_under_analysis_subdirectory(self, tmp_path):
        # The layout every earlier cache directory was written in: a
        # directory filled before keeps hitting.
        cache = DiskCache(tmp_path)
        cache.put("k", "value")
        assert cache.directory == os.path.join(str(tmp_path), "analysis")
        assert os.listdir(tmp_path) == ["analysis"]
        assert os.path.isfile(cache._path_for("k"))
        assert os.path.dirname(cache._path_for("k")) == cache.directory

    def test_version_skew_is_a_miss_and_entry_is_dropped(self, tmp_path):
        old = DiskCache(tmp_path, spec_version="build-A")
        old.put("k", [1, 2, 3])
        new = DiskCache(tmp_path, spec_version="build-B")
        assert new.get("k") is None
        assert new.stats.rejected == 1
        # The stale entry is deleted, not left to be rejected forever.
        assert len(new) == 0

    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", "value")
        path = cache._path_for("k")
        with open(path, "wb") as handle:
            handle.write(b"\x80\x04 truncated garbage")
        assert cache.get("k") is None
        assert cache.stats.rejected == 1
        assert not os.path.exists(path)

    def test_non_dict_envelope_rejected(self, tmp_path):
        cache = DiskCache(tmp_path)
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache._path_for("k"), "wb") as handle:
            pickle.dump(["not", "an", "envelope"], handle)
        assert cache.get("k") is None
        assert cache.stats.rejected == 1

    def test_unpicklable_value_is_best_effort_no_write(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", lambda: None)  # lambdas don't pickle
        assert cache.get("k") is None
        assert cache.stats.writes == 0
        # No stray temp files either: the atomic publish cleaned up.
        leftovers = [
            name for name in os.listdir(cache.directory)
            if name.endswith(".tmp")
        ] if os.path.isdir(cache.directory) else []
        assert leftovers == []

    def test_clear_and_describe(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", 1)
        cache.put("b", 2)
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0
        assert "disk cache" in cache.describe()

    def test_default_spec_version_tracks_plan_spec(self):
        assert f"plan{ExecutionPlan.SPEC_VERSION}" in default_spec_version()


class TestAnalysisCacheDiskTier:
    def test_warm_restart_skips_analysis(self, tmp_path):
        nest = example_4_1(8)
        first = AnalysisCache(disk=DiskCache(tmp_path))
        report, hit = first.analyze(nest)
        assert not hit
        assert first.disk.stats.writes == 1
        # A "restarted process": fresh memory cache, same directory.
        second = AnalysisCache(disk=DiskCache(tmp_path))
        restored, hit = second.analyze(nest)
        assert hit
        assert isinstance(restored, ParallelizationReport)
        assert restored == report
        assert second.stats.misses == 0
        # The disk hit also primed the memory tier: a third lookup never
        # touches the disk again.
        reads_before = second.disk.stats.hits
        _, hit = second.analyze(nest)
        assert hit
        assert second.disk.stats.hits == reads_before

    def test_disk_key_separates_knobs(self, tmp_path):
        nest = example_4_1(8)
        outer = AnalysisCache.disk_key_for(nest, placement="outer")
        inner = AnalysisCache.disk_key_for(nest, placement="inner")
        assert outer != inner
        assert AnalysisCache.disk_key_for(nest) != AnalysisCache.disk_key_for(
            example_4_2(8)
        )

    def test_memory_only_cache_unaffected(self):
        cache = AnalysisCache()
        assert cache.disk is None
        report, hit = cache.analyze(example_4_1(8))
        assert not hit
        _, hit = cache.analyze(example_4_1(8))
        assert hit

    def test_stale_disk_entry_degrades_to_cold_analysis(self, tmp_path):
        nest = example_4_1(8)
        # Poison the exact disk slot with a stale-version entry.
        stale = DiskCache(tmp_path, spec_version="ancient")
        stale.put(AnalysisCache.disk_key_for(nest), "garbage")
        cache = AnalysisCache(disk=DiskCache(tmp_path))
        report, hit = cache.analyze(nest)
        assert not hit
        assert report.parallel_levels
