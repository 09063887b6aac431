"""Tests for the command line interface and the loop description format."""

import pytest

from repro.cli import build_parser, main, parse_loop_file, parse_loop_text
from repro.exceptions import LoopNestError, SubscriptError

EXAMPLE_41 = """
# section 4.1 reconstruction
name: cli-example
loop i1 = -6 .. 6
loop i2 = -6 .. 6
A[i1, i2] = A[-i1 - 2, 2*i1 + i2 + 2] + 1.0
"""

TRIANGULAR = """
loop i1 = 0 .. 8
loop i2 = 0 .. i1
A[i1, i2] = A[i1 - 2, i2] + 1.0
"""


class TestParseLoopText:
    def test_basic(self):
        nest = parse_loop_text(EXAMPLE_41)
        assert nest.name == "cli-example"
        assert nest.depth == 2
        assert nest.bounds[0].lower_value({}) == -6
        assert len(nest.statements) == 1

    def test_affine_bounds(self):
        nest = parse_loop_text(TRIANGULAR, default_name="tri")
        assert nest.name == "tri"
        assert not nest.is_rectangular

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# only a comment\n" + EXAMPLE_41 + "\n   # trailing comment\n"
        nest = parse_loop_text(text)
        assert nest.depth == 2

    def test_multiple_statements(self):
        text = EXAMPLE_41 + "B[i1, i2] = B[i1 - 1, i2] + A[i1, i2]\n"
        nest = parse_loop_text(text)
        assert len(nest.statements) == 2

    def test_loop_after_statement_rejected(self):
        text = "loop i1 = 0 .. 3\nA[i1] = 1.0\nloop i2 = 0 .. 3\n"
        with pytest.raises(LoopNestError):
            parse_loop_text(text)

    def test_missing_loops_rejected(self):
        with pytest.raises(LoopNestError):
            parse_loop_text("A[i1] = 1.0\n")

    def test_missing_statements_rejected(self):
        with pytest.raises(LoopNestError):
            parse_loop_text("loop i1 = 0 .. 3\n")

    def test_malformed_loop_line(self):
        with pytest.raises(LoopNestError):
            parse_loop_text("loop i1 from 0 to 3\nA[i1] = 1.0\n")

    def test_bad_statement_propagates(self):
        with pytest.raises(SubscriptError):
            parse_loop_text("loop i1 = 0 .. 3\nA[i1*i1] = 1.0\n")


class TestParseLoopFile:
    def test_shipped_example_files(self):
        from pathlib import Path

        loops_dir = Path(__file__).resolve().parent.parent / "examples" / "loops"
        names = [
            "example41.loop",
            "example42.loop",
            "banded_update.loop",
            "triangular_wavefront.loop",
        ]
        for name in names:
            nest = parse_loop_file(str(loops_dir / name))
            assert nest.depth == 2
            assert nest.iteration_count() > 0

    def test_file_name_used_as_default_name(self, tmp_path):
        path = tmp_path / "my_kernel.loop"
        path.write_text("loop i1 = 0 .. 3\nA[i1] = A[i1 - 1] + 1.0\n")
        nest = parse_loop_file(str(path))
        assert nest.name == "my_kernel"


class TestMain:
    @pytest.fixture()
    def loop_file(self, tmp_path):
        path = tmp_path / "ex41.loop"
        path.write_text(EXAMPLE_41)
        return str(path)

    def test_analyze(self, loop_file, capsys):
        assert main(["analyze", loop_file]) == 0
        out = capsys.readouterr().out
        assert "Pseudo distance matrix" in out
        assert "2 partition" in out
        assert "ideal speedup" in out

    def test_codegen(self, loop_file, capsys):
        assert main(["codegen", loop_file]) == 0
        out = capsys.readouterr().out
        assert "def run_original(arrays):" in out
        assert "def run_transformed(arrays):" in out
        assert "# doall" in out

    def test_verify(self, loop_file, capsys):
        assert main(["verify", loop_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare(self, loop_file, capsys):
        assert main(["compare", loop_file]) == 0
        out = capsys.readouterr().out
        assert "pdm" in out
        assert "not applicable" in out  # uniform-distance baselines give up

    def test_figures(self, loop_file, capsys):
        assert main(["figures", loop_file]) == 0
        out = capsys.readouterr().out
        assert "partition labels" in out
        assert "distance vector : count" in out

    def test_inner_placement_flag(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--placement", "inner"]) == 0
        assert "doall" in capsys.readouterr().out.lower()

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/path.loop"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_loop_file(self, tmp_path, capsys):
        path = tmp_path / "bad.loop"
        path.write_text("A[i1] = 1.0\n")
        assert main(["analyze", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode", "x.loop"])

    def test_invalid_session_flags_fail_cleanly(self, loop_file, capsys):
        # config validation errors surface as a clean error line, no traceback
        assert main(["run", loop_file, "--processors", "0"]) == 1
        assert "error: workers must be >= 1" in capsys.readouterr().err

    def test_analyze_prints_pass_timings(self, loop_file, capsys):
        assert main(["analyze", loop_file]) == 0
        out = capsys.readouterr().out
        assert "Per-pass analysis timing" in out
        assert "build-pdm" in out
        assert "analysis cache:" in out

    def test_no_cache_flag(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cold analysis" in out
        assert "analysis cache:" not in out

    def test_compare_no_cache_bypasses_shared_cache(self, loop_file, capsys):
        from repro.core.cache import default_cache

        before = default_cache().stats.lookups
        assert main(["compare", loop_file, "--no-cache"]) == 0
        assert default_cache().stats.lookups == before
        assert "pdm" in capsys.readouterr().out


class TestMultipleFiles:
    @pytest.fixture()
    def two_files(self, tmp_path):
        first = tmp_path / "first.loop"
        first.write_text(EXAMPLE_41)
        second = tmp_path / "second.loop"
        second.write_text(TRIANGULAR)
        return str(first), str(second)

    def test_analyze_multiple_files(self, two_files, capsys):
        first, second = two_files
        assert main(["analyze", first, second]) == 0
        out = capsys.readouterr().out
        assert f"=== {first} ===" in out
        assert f"=== {second} ===" in out
        assert out.count("Pseudo distance matrix") == 2

    def test_identical_files_share_one_analysis(self, tmp_path, capsys):
        a = tmp_path / "a.loop"
        a.write_text(EXAMPLE_41)
        b = tmp_path / "b.loop"
        b.write_text(EXAMPLE_41)
        assert main(["analyze", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out

    def test_first_parse_failure_aborts_nonzero(self, tmp_path, capsys):
        good = tmp_path / "good.loop"
        good.write_text(EXAMPLE_41)
        bad = tmp_path / "bad.loop"
        bad.write_text("A[i1] = 1.0\n")  # statement before any loop
        unreached = tmp_path / "unreached.loop"
        unreached.write_text(TRIANGULAR)
        assert main(["analyze", str(good), str(bad), str(unreached)]) == 1
        captured = capsys.readouterr()
        assert str(bad) in captured.err
        assert str(unreached) not in captured.out

    def test_missing_file_in_batch(self, tmp_path, capsys):
        good = tmp_path / "good.loop"
        good.write_text(EXAMPLE_41)
        assert main(["analyze", str(good), str(tmp_path / "missing.loop")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_codegen_accepts_multiple_files(self, two_files, capsys):
        first, second = two_files
        assert main(["codegen", first, second]) == 0
        out = capsys.readouterr().out
        assert out.count("def run_transformed(arrays):") == 2


class TestBatchCommand:
    @pytest.fixture()
    def two_files(self, tmp_path):
        first = tmp_path / "first.loop"
        first.write_text(EXAMPLE_41)
        second = tmp_path / "second.loop"
        second.write_text(TRIANGULAR)
        return str(first), str(second)

    def test_batch_serves_all_files(self, two_files, capsys):
        first, second = two_files
        assert main(["batch", first, second, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cli-example" in out
        assert "second" in out
        assert "jobs/s" in out
        assert "analysis dedupe" in out

    def test_batch_repeat_dedupes_analysis(self, two_files, capsys):
        first, _ = two_files
        assert main(["batch", first, "--repeat", "3", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cli-example#1" in out
        assert "cli-example#3" in out
        # one cold analysis, two cache hits
        assert "1 miss(es)" in out
        assert "2 hit(s)" in out

    def test_batch_shared_mode(self, two_files, capsys):
        first, second = two_files
        assert main(
            ["batch", first, second, "--mode", "shared", "--processors", "2",
             "--backend", "compiled", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "mode: shared (2 worker(s))" in out

    def test_serve_reports_the_gateway_and_each_fallback_once(self, two_files, capsys):
        first, second = two_files
        assert main(
            ["serve", first, second, "--backend", "vectorized", "--mode",
             "native-parallel", "--processors", "2", "--repeat", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("Served 4 job(s)")
        assert "  gateway: 2 execution worker(s)" in out
        # Both programs name the same fallback: one note.
        notes = [line for line in out.splitlines() if "note:" in line]
        assert notes == [
            "  note: serial run: backend 'vectorized' has no in-kernel parallel driver"
        ]

    def test_batch_missing_file(self, two_files, capsys):
        first, _ = two_files
        assert main(["batch", first, "/nonexistent/path.loop"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_batch_parse_failure_aborts(self, tmp_path, capsys):
        bad = tmp_path / "bad.loop"
        bad.write_text("A[i1] = 1.0\n")
        assert main(["batch", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_mode_shared(self, tmp_path, capsys):
        path = tmp_path / "ex41.loop"
        path.write_text(EXAMPLE_41)
        assert main(
            ["run", str(path), "--mode", "shared", "--processors", "2",
             "--backend", "vectorized"]
        ) == 0
        out = capsys.readouterr().out
        assert "mode: shared" in out
        assert "runtime setup" in out
        assert "ok" in out


class TestBackendListing:
    def test_help_lists_registered_backends_dynamically(self, capsys):
        # The --backend flag must pick up new backends from the registry —
        # both in the accepted choices and in the rendered help text.
        from repro.runtime.backends import available_backends

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        out = capsys.readouterr().out
        for name in available_backends():
            assert name in out
        assert "native" in out

    def test_run_native_backend(self, tmp_path, capsys):
        path = tmp_path / "ex41.loop"
        path.write_text(EXAMPLE_41)
        assert main(["run", str(path), "--backend", "native"]) == 0
        out = capsys.readouterr().out
        # The run line reports what actually executed: "native-<engine>",
        # or the fallback backend's name when no engine is available.
        assert (
            "backend: native" in out
            or "backend: vectorized" in out
            or "backend: compiled" in out
        )
        assert "ok" in out
