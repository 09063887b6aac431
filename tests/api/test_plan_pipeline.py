"""The plan-optimization pipeline through the public surface.

Covers the configuration plumbing (``SessionConfig.plan_passes``, CLI
``--plan-passes`` / ``--no-plan-passes``), the rejection of removed modes,
passes, options, commands and modules, the session's program LRU caching
the *optimized* plan and the equivalence guarantee: optimized and raw
dispatches produce identical stores.
"""

import importlib

import pytest

import repro.exceptions
from repro.api import Session, SessionConfig
from repro.cli import build_parser, session_config_from_args
from repro.exceptions import ExecutionError, WorkloadError
from repro.plan import DEFAULT_PLAN_PASSES, available_plan_passes
from repro.runtime.executor import EXECUTION_MODES, ParallelExecutor
from repro.workloads.paper_examples import example_4_1


class TestConfig:
    def test_default_pipeline_is_mode_aware(self):
        # Serial and native-parallel runs are one backend call, so
        # coalescing (which trades round structure for fewer dispatches)
        # only defaults on in the dispatch-bound shared mode.
        for mode in ("serial", "native-parallel"):
            assert SessionConfig(mode=mode).resolved_plan_passes() == ()
        config = SessionConfig(mode="shared")
        assert config.resolved_plan_passes() == DEFAULT_PLAN_PASSES == ("coalesce",)

    def test_explicit_pipeline_overrides_mode_default(self):
        config = SessionConfig(mode="serial", plan_passes=("coalesce",))
        assert config.resolved_plan_passes() == ("coalesce",)

    def test_normalizes_to_tuple(self):
        config = SessionConfig(plan_passes=["coalesce"])
        assert config.plan_passes == ("coalesce",)

    def test_unknown_pass_rejected_at_config_time(self):
        with pytest.raises(WorkloadError, match="unknown plan pass"):
            SessionConfig(plan_passes=("coalesce", "nope"))

    def test_empty_disables(self):
        with Session(SessionConfig(plan_passes=())) as session:
            assert session._plan_pipeline is None

    def test_remaining_surface(self):
        assert EXECUTION_MODES == ("serial", "shared", "native-parallel")
        assert available_plan_passes() == ("coalesce",)


class TestRemovedOptions:
    """Deleted modes, passes, options and commands fail loudly."""

    def test_processes_mode_rejected(self):
        with pytest.raises(
            WorkloadError,
            match="'processes'; available: serial, shared, native-parallel$",
        ):
            SessionConfig(mode="processes")

    def test_threads_mode_rejected(self):
        # Folded into native-parallel: no alias, the three modes are listed.
        available = "available: serial, shared, native-parallel$"
        with pytest.raises(WorkloadError, match=f"'threads'; {available}"):
            SessionConfig(mode="threads")
        with pytest.raises(ExecutionError, match=f"'threads'; {available}"):
            ParallelExecutor(mode="threads")

    @pytest.mark.parametrize("name", ["tile", "fuse"])
    def test_removed_plan_passes_rejected(self, name):
        with pytest.raises(WorkloadError, match=f"'{name}'; available: coalesce$"):
            SessionConfig(plan_passes=(name,))

    def test_cli_processes_mode_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "x.loop", "--mode", "processes"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'processes'" in err
        assert "'serial', 'shared', 'native-parallel'" in err

    def test_cli_threads_mode_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "x.loop", "--mode", "threads"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'threads'" in err
        assert "'serial', 'shared', 'native-parallel'" in err

    def test_cli_fuse_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["batch", "x.loop", "--fuse"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fuse" in capsys.readouterr().err

    def test_cluster_option_rejected(self):
        # The multi-host serving tier is gone: no config field, no keyword.
        with pytest.raises(TypeError, match="cluster"):
            SessionConfig(cluster="127.0.0.1:9100")
        with pytest.raises(TypeError, match="cluster"):
            Session(cluster="127.0.0.1:9100")
        with pytest.raises(TypeError, match="cluster"):
            Session(SessionConfig(), cluster="127.0.0.1:9100")

    def test_cli_worker_command_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["worker"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err

    def test_cli_serve_cluster_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "x.loop", "--cluster", "h:1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cluster h:1" in capsys.readouterr().err

    def test_cluster_package_and_errors_removed(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.cluster")
        assert not hasattr(repro.exceptions, "ClusterError")
        assert not hasattr(repro.exceptions, "ClusterProtocolError")
        assert "ClusterError" not in repro.exceptions.__all__


class TestSessionPipeline:
    def test_program_cache_holds_optimized_plan(self):
        with Session(
            mode="serial", backend="compiled", plan_passes=("coalesce",)
        ) as session:
            optimized = session.run(example_4_1(40))
        with Session(mode="serial", backend="compiled", plan_passes=()) as session:
            raw = session.run(example_4_1(40))
        # Same results, strictly fewer dispatched chunks.
        assert optimized.checksum == raw.checksum
        assert optimized.num_chunks < raw.num_chunks

    def test_verify_passes_with_pipeline(self):
        with Session(mode="serial", backend="vectorized", verify="always") as session:
            result = session.run(example_4_1(32))
        assert result.max_abs_difference == 0.0

    def test_cached_program_reused(self):
        with Session(mode="serial") as session:
            session.run(example_4_1(16))
            entry = next(iter(session._programs.values()))
            session.run(example_4_1(16))
            assert next(iter(session._programs.values())).plan is entry.plan


class TestCli:
    def _config(self, argv):
        parser = build_parser()
        return session_config_from_args(parser.parse_args(argv))

    def test_default_flags(self):
        config = self._config(["run", "x.loop"])
        assert config.plan_passes is None  # auto: resolved by mode

    def test_plan_passes_flag(self):
        config = self._config(["run", "x.loop", "--plan-passes", "coalesce"])
        assert config.plan_passes == ("coalesce",)

    def test_no_plan_passes_flag(self):
        config = self._config(["run", "x.loop", "--no-plan-passes"])
        assert config.plan_passes == ()

    def test_bad_plan_pass_fails_at_config(self):
        with pytest.raises(WorkloadError, match="unknown plan pass"):
            self._config(["run", "x.loop", "--plan-passes", "bogus"])
