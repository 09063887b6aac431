"""Tests for report data structures, the experiment harness and the public API surface."""

import pytest

import repro
from repro.core.report import TransformationStep
from repro.experiments.harness import format_experiment_report, run_all_experiments
from repro.workloads.paper_examples import example_4_1


class TestTransformationStep:
    def test_describe_with_matrix(self):
        step = TransformationStep("algorithm1", "zeroed one column", [[1, 1], [1, 0]])
        text = step.describe()
        assert "algorithm1" in text
        assert "zeroed one column" in text
        assert "1" in text

    def test_describe_without_matrix(self):
        step = TransformationStep("pdm", "computed the PDM")
        assert step.describe() == "pdm: computed the PDM"
        assert str(step) == step.describe()


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_flow(self):
        # the flow advertised in the package docstring must keep working
        nest = (
            repro.loop_nest("demo")
            .loop("i1", -10, 10)
            .loop("i2", -10, 10)
            .statement("A[i1, i2] = A[-i1 - 2, 2*i1 + i2 + 2] + 1.0")
            .build()
        )
        with repro.Session() as session:
            analysis = session.analyze(nest)
        assert (
            analysis.report.pdm.rank,
            analysis.parallel_loops,
            analysis.partitions,
        ) == (1, 1, 2)

    def test_top_level_helpers(self):
        nest = example_4_1(4)
        report = repro.analyze_nest(nest)
        plan = repro.TransformedLoopNest.from_report(report).execution_plan()
        assert repro.simulate_schedule(plan.select_chunks(), num_processors=2).speedup > 1.0
        assert "def run_original" in repro.emit_original_source(nest)
        isdg = repro.build_isdg(nest)
        assert repro.compute_statistics(isdg).num_iterations == nest.iteration_count()


class TestExperimentHarness:
    @pytest.fixture(scope="class")
    def results(self):
        # small sizes keep the full harness fast enough for the test-suite
        return run_all_experiments(n=5, suite_n=5)

    def test_all_experiments_present(self, results):
        expected = {
            "figure1", "figure2", "figure3", "figure4", "figure5",
            "table1", "speedup-4.1", "speedup-4.2", "algorithm1-cost",
        }
        assert expected <= set(results)

    def test_figures_have_statistics(self, results):
        for key in ("figure2", "figure3", "figure4", "figure5"):
            assert results[key].statistics.num_iterations > 0

    def test_report_renders(self, results):
        text = format_experiment_report(results)
        assert "Figure 2" in text
        assert "Table 1" in text
        assert "Speedup sweep" in text
        assert "Algorithm 1 cost" in text
        assert len(text.splitlines()) > 50
