"""The plan-optimization pipeline through the public surface.

Covers the configuration plumbing (``SessionConfig.plan_passes``, CLI
``--plan-passes`` / ``--no-plan-passes``), the rejection of removed modes,
passes and flags, the session's program LRU caching the *optimized* plan
and the equivalence guarantee: optimized and raw dispatches produce
identical stores.
"""

import pytest

from repro.api import Session, SessionConfig
from repro.cli import build_parser, session_config_from_args
from repro.exceptions import WorkloadError
from repro.plan import DEFAULT_PLAN_PASSES, available_plan_passes
from repro.runtime.executor import EXECUTION_MODES
from repro.workloads.paper_examples import example_4_1


class TestConfig:
    def test_default_pipeline_is_mode_aware(self):
        # Serial dispatch is free, so coalescing (which trades round
        # structure for fewer dispatches) only defaults on in the
        # dispatch-bound modes.
        for mode in ("serial", "native-parallel"):
            assert SessionConfig(mode=mode).resolved_plan_passes() == ()
        for mode in ("threads", "shared"):
            config = SessionConfig(mode=mode)
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
        assert EXECUTION_MODES == ("serial", "threads", "shared", "native-parallel")
        assert available_plan_passes() == ("coalesce",)


class TestRemovedOptions:
    """Deleted modes, passes and flags fail loudly and name what is left."""

    def test_processes_mode_rejected(self):
        with pytest.raises(
            WorkloadError,
            match="'processes'; available: serial, threads, shared, native-parallel$",
        ):
            SessionConfig(mode="processes")

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
        assert "'serial', 'threads', 'shared', 'native-parallel'" in err

    def test_cli_fuse_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["batch", "x.loop", "--fuse"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fuse" in capsys.readouterr().err


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
            assert next(iter(session._programs.values()))[1] is entry[1]


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
