"""Tests for the uniform input layer (:mod:`repro.api.inputs`)."""

import pathlib
import types

import pytest

from repro.api.inputs import parse_loop_text, resolve_source, resolve_sources
from repro.exceptions import LoopNestError
from repro.loopnest.nest import LoopNest
from repro.workloads.paper_examples import example_4_1
from repro.workloads.suite import workload_suite

LOOP_TEXT = """
name: from-text
loop i1 = -4 .. 4
loop i2 = -4 .. 4
A[i1, i2] = A[-i1 - 2, 2*i1 + i2 + 2] + 1.0
"""

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent.parent / "examples" / "loops"


class TestResolveSource:
    def test_built_nest_passes_through(self):
        nest = example_4_1(4)
        assert resolve_source(nest) is nest

    def test_loop_text(self):
        nest = resolve_source(LOOP_TEXT)
        assert isinstance(nest, LoopNest)
        assert nest.name == "from-text"
        assert nest.depth == 2

    def test_single_line_loop_text_needs_declaration_shape(self):
        nest = resolve_source("loop i1 = 0 .. 3\nA[i1] = A[i1 - 1] + 1.0")
        assert nest.depth == 1

    def test_file_path_string(self):
        nest = resolve_source(str(EXAMPLES_DIR / "example41.loop"))
        assert nest.name == "example-4.1"  # the file's name: line wins

    def test_pathlike(self):
        nest = resolve_source(EXAMPLES_DIR / "example42.loop")
        assert nest.name == "example-4.2"

    def test_workload_factory_with_n(self):
        nest = resolve_source(example_4_1, n=6)
        assert nest.iteration_count() == example_4_1(6).iteration_count()

    def test_object_with_nest_attribute(self):
        case = workload_suite(4)[0]
        assert resolve_source(case) is case.nest
        job = types.SimpleNamespace(name="job", nest=example_4_1(4))
        assert resolve_source(job) is job.nest

    def test_name_override_for_text(self):
        nest = resolve_source("loop i1 = 0 .. 3\nA[i1] = 1.0", name="renamed")
        assert nest.name == "renamed"

    def test_missing_file_raises_filenotfound(self):
        with pytest.raises(FileNotFoundError):
            resolve_source("/nonexistent/path.loop")

    def test_unresolvable_string_is_an_error(self):
        with pytest.raises(LoopNestError, match="cannot resolve loop source"):
            resolve_source("definitely not a loop")

    def test_unresolvable_type_is_an_error(self):
        with pytest.raises(LoopNestError, match="cannot resolve loop source"):
            resolve_source(12345)

    def test_factory_returning_non_nest_is_an_error(self):
        with pytest.raises(LoopNestError, match="workload factory"):
            resolve_source(lambda: "not a nest")

    def test_resolve_sources_batch(self):
        nests = resolve_sources([example_4_1(4), LOOP_TEXT])
        assert [type(n) for n in nests] == [LoopNest, LoopNest]


class TestParseLoopTextStillExported:
    def test_cli_reexports_parser(self):
        # the CLI keeps its historical import surface
        from repro.cli import parse_loop_file, parse_loop_text  # noqa: F401

        nest = parse_loop_text(LOOP_TEXT)
        assert nest.name == "from-text"
