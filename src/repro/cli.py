"""Command line interface.

A small front end so the analysis can be driven from loop descriptions in
plain text files, without writing Python::

    repro-loop analyze examples/loops/example41.loop
    repro-loop analyze examples/loops/*.loop      # batch, shared cache
    repro-loop codegen examples/loops/example41.loop
    repro-loop verify  examples/loops/example41.loop
    repro-loop compare examples/loops/example41.loop
    repro-loop figures examples/loops/example41.loop
    repro-loop run     examples/loops/example41.loop --backend vectorized
    repro-loop batch   examples/loops/*.loop --mode shared --repeat 4
    repro-loop serve   examples/loops/*.loop --repeat 8 --processors 4

Every sub-command shares one group of session options
(``--backend/--mode/--processors/--placement/--no-cache``); ``main``
builds a single :class:`repro.api.SessionConfig` from them and serves the
whole invocation through one :class:`repro.api.Session` — the CLI never
wires caches or executors by hand.

The loop description format is documented in :mod:`repro.api.inputs`
(``name:`` line, ``loop <index> = <lower> .. <upper>`` declarations
outermost first, then body statements; ``#`` starts a comment).

``--dump-docs`` (anywhere on the command line) prints the generated CLI
reference (the committed ``docs/cli.md``) and exits; see
:mod:`repro.cli_docs`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.api import Session, SessionConfig, parse_loop_file, parse_loop_text
from repro.baselines.comparison import ALL_METHODS, compare_methods, comparison_table
from repro.baselines.pdm_method import pdm_method
from repro.codegen.python_emitter import emit_original_source, emit_transformed_source
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.cache import AnalysisCache, default_cache
from repro.exceptions import ReproError
from repro.isdg.build import build_isdg
from repro.isdg.partitions import partition_labels_of_iterations
from repro.isdg.render import render_ascii_grid, render_distance_histogram, render_partition_grid
from repro.isdg.stats import compute_statistics
from repro.loopnest.nest import LoopNest
from repro.plan import DEFAULT_PLAN_PASSES, available_plan_passes
from repro.runtime.backends import DEFAULT_BACKEND, available_backends
from repro.runtime.executor import EXECUTION_MODES, default_worker_count
from repro.runtime.simulator import simulate_schedule
from repro.runtime.verification import verify_transformation
from repro.utils.formatting import format_table
from repro.workloads.suite import WorkloadCase

__all__ = [
    "parse_loop_text",
    "parse_loop_file",
    "session_config_from_args",
    "session_from_args",
    "main",
]


# ---------------------------------------------------------------------------
# the shared session-option group
# ---------------------------------------------------------------------------

def _add_session_options(parser: argparse.ArgumentParser) -> None:
    """The one option group every sub-command shares (builds a SessionConfig)."""
    group = parser.add_argument_group(
        "session options",
        "shared flags: every sub-command builds one repro.api.Session from these",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the memoizing analysis cache (every file is analyzed cold)",
    )
    group.add_argument(
        "--placement",
        choices=["outer", "inner"],
        default="outer",
        help="where Algorithm 1 places the parallel loops (default: outer)",
    )
    group.add_argument(
        "--processors",
        type=int,
        default=None,
        help="processor count for the simulated-speedup report and the "
        "worker count of the session's executor (default: auto — "
        "$REPRO_WORKERS when set, else the host's CPU count, clamped)",
    )
    group.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="execution backend for the 'run', 'batch' and 'serve' commands: "
        f"{', '.join(available_backends())} (default: {DEFAULT_BACKEND})",
    )
    group.add_argument(
        "--mode",
        choices=list(EXECUTION_MODES),
        default="serial",
        help="executor mode for the 'run', 'batch' and 'serve' commands: 'shared' is "
        "the persistent zero-copy worker pool, 'native-parallel' the in-kernel "
        "multithreaded driver of the native backend (a backend without one "
        "runs serially and reports the fallback) (default: serial)",
    )
    group.add_argument(
        "--plan-passes",
        metavar="NAMES",
        default=None,
        help="comma-separated plan optimization passes run over every "
        "execution plan after planning (default: auto — "
        f"{','.join(DEFAULT_PLAN_PASSES)} for shared mode, "
        "none for serial and native-parallel; available: "
        f"{', '.join(available_plan_passes())})",
    )
    group.add_argument(
        "--no-plan-passes",
        action="store_true",
        help="dispatch the raw execution plan, skipping plan optimization",
    )
    group.add_argument(
        "--disk-cache",
        default=None,
        metavar="DIR",
        help="directory for the durable analysis-cache tier: restarted "
        "invocations skip analysis for loop structures the host has "
        "already seen (entries are version-checked)",
    )


def session_config_from_args(args, **overrides) -> SessionConfig:
    """Build the invocation's :class:`SessionConfig` from the shared flags."""
    options = dict(
        backend=args.backend,
        mode=args.mode,
        workers=args.processors,
        placement=args.placement,
        use_cache=not args.no_cache,
    )
    if getattr(args, "no_plan_passes", False):
        options["plan_passes"] = ()
    elif getattr(args, "plan_passes", None):
        options["plan_passes"] = tuple(
            name.strip() for name in args.plan_passes.split(",") if name.strip()
        )
    if getattr(args, "disk_cache", None):
        options["disk_cache"] = args.disk_cache
    options.update(overrides)
    return SessionConfig(**options)


def session_from_args(args, **overrides) -> Session:
    """The one :class:`Session` serving this CLI invocation.

    Without ``--no-cache`` the session joins the process-wide analysis
    cache.  For ``batch``, ``--no-cache`` serves the batch through a cold
    *private* cache instead of disabling caching (structural duplicates
    still dedupe within the batch, which is the command's point).
    """
    # With --disk-cache the session must build its own (disk-backed)
    # AnalysisCache: joining the process-wide cache would silently drop
    # the durable tier.
    disk = bool(getattr(args, "disk_cache", None))
    if args.command in _BATCH_COMMANDS:
        overrides.setdefault("use_cache", True)
        if disk:
            cache = None
        else:
            cache = AnalysisCache() if args.no_cache else default_cache()
    else:
        cache = None if (args.no_cache or disk) else default_cache()
    return Session(session_config_from_args(args, **overrides), cache=cache)


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------

def _report_for(nest: LoopNest, session: Session):
    """Analyse one nest through the invocation's session.

    Returns ``(report, was_cache_hit)``.
    """
    analysis = session.analyze(nest)
    return analysis.report, analysis.cache_hit


def _cmd_analyze(nest: LoopNest, args, session: Session) -> str:
    report, cache_hit = _report_for(nest, session)
    transformed = TransformedLoopNest.from_report(report)
    # Schedule numbers come from the symbolic plan: chunk sizes are closed
    # form, so even huge nests report without materializing an iteration.
    plan = transformed.execution_plan()
    stats = plan.statistics()
    processors = args.processors or default_worker_count()
    sim = simulate_schedule(plan.select_chunks(), num_processors=processors)
    lines = [str(nest), "", report.summary(), ""]
    lines.append(
        f"Schedule: {stats['num_chunks']} independent chunks, "
        f"ideal speedup {stats['ideal_speedup']:.2f}, "
        f"simulated speedup on {processors} processors {sim.speedup:.2f}"
    )
    lines.append("")
    origin = "cache hit (cold-run timings shown)" if cache_hit else "cold analysis"
    lines.append(f"Per-pass analysis timing ({origin}):")
    for timing in report.pass_timings:
        lines.append(f"  {timing.describe()}")
    if session.cache is not None:
        lines.append(session.cache.describe())
    return "\n".join(lines)


def _cmd_codegen(nest: LoopNest, args, session: Session) -> str:
    report, _ = _report_for(nest, session)
    transformed = TransformedLoopNest.from_report(report)
    lines = [
        "# --- original loop -------------------------------------------------",
        emit_original_source(nest),
        "# --- transformed (parallelized) loop --------------------------------",
        emit_transformed_source(transformed),
    ]
    return "\n".join(lines)


def _cmd_verify(nest: LoopNest, args, session: Session) -> str:
    report, _ = _report_for(nest, session)
    result = verify_transformation(
        nest,
        report,
        check_executors=("serial",),
        check_backends=tuple(b for b in available_backends() if b != "interpreter"),
    )
    return result.describe()


def _cmd_run(nest: LoopNest, args, session: Session) -> str:
    """Execute the parallelized nest through the session and report timing."""
    result = session.run(nest)
    lines = [
        f"Executed {nest.name!r}: {result.iterations} iterations in "
        f"{result.num_chunks} chunks",
        f"  backend: {result.backend}, mode: {result.mode} "
        f"({result.workers} worker(s))"
        + (
            f", engine: {result.engine} ({result.threads} thread(s))"
            if result.engine
            else ""
        ),
        f"  execute: {result.execute_seconds * 1000.0:.2f} ms "
        f"(+ {result.setup_seconds * 1000.0:.2f} ms runtime setup)",
        f"  store checksum: {result.checksum:.6f}",
        f"  max |difference| vs interpreter reference: {result.max_abs_difference:.3e} "
        f"({'ok' if result.verified else 'MISMATCH'})",
    ]
    if result.fallback:
        lines.append(f"  note: {result.fallback}")
    return "\n".join(lines)


_BATCH_HEADERS = [
    "job", "iterations", "chunks", "doall", "partitions", "speedup", "analysis",
    "analyze (ms)", "setup (ms)", "execute (ms)", "backend", "checksum",
]


def _ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f}"


def _throughput(jobs: int, iterations: int, wall: float) -> str:
    """The ``N job(s), M iterations in ... (jobs/s, iterations/s)`` line."""
    line = f"{jobs} job(s), {iterations} iterations"
    if wall > 0:
        line += (
            f" in {_ms(wall)} ms wall "
            f"({jobs / wall:.1f} jobs/s, {iterations / wall:.0f} iterations/s)"
        )
    return line


def _cmd_batch(nests: List[LoopNest], args, session: Session) -> str:
    """Serve every parsed nest through one ``Session.map`` and report throughput.

    ``--repeat K`` submits the list K times (job names get a ``#k``
    suffix); structural duplicates dedupe through the session's cache.
    """
    repeat = max(1, int(getattr(args, "repeat", 1)))
    names = [
        f"{nest.name}#{round_index + 1}" if repeat > 1 else nest.name
        for round_index in range(repeat)
        for nest in nests
    ]
    wall_start = time.perf_counter()
    results = session.map(nests * repeat, names=names, placement=args.placement)
    wall = time.perf_counter() - wall_start
    rows = []
    for run in results:
        rows.append([
            run.name,
            run.iterations,
            run.num_chunks,
            run.report.parallel_loop_count,
            run.report.partition_count,
            f"{run.ideal_speedup:.1f}",
            "hit" if run.cache_hit else "miss",
            # Program construction counts as analysis: compile-time work a
            # warm program-LRU hit skips, like the analysis cache.
            _ms(run.analysis_seconds + run.program_seconds),
            _ms(run.setup_seconds),
            _ms(run.execute_seconds),
            run.backend,
            f"{run.checksum:.6g}",
        ])
    jobs = len(results)
    hits = sum(run.cache_hit for run in results)
    analysis = sum(run.analysis_seconds + run.program_seconds for run in results)
    execution = sum(run.total_seconds for run in results)
    config = session.config
    return "\n".join([
        format_table(_BATCH_HEADERS, rows),
        "",
        _throughput(jobs, sum(run.iterations for run in results), wall),
        f"mode: {config.mode} ({config.resolved_workers()} worker(s)); analysis "
        f"{_ms(analysis)} ms total, execution {_ms(execution)} ms total",
        f"analysis dedupe: {hits} hit(s), {jobs - hits} miss(es) this batch "
        f"({hits / jobs:.0%} hit rate); {session.cache.describe()}",
    ])


def _cmd_serve(nests: List[LoopNest], args, session: Session) -> str:
    """Serve every parsed nest through the async gateway and report."""
    from repro.gateway import GatewayConfig, serve

    config = GatewayConfig(
        max_pending=getattr(args, "max_pending", 32),
        exec_workers=args.processors or default_worker_count(),
    )
    wall_start = time.perf_counter()
    results = serve(
        session,
        nests,
        config=config,
        repeat=getattr(args, "repeat", 1),
        placement=args.placement,
    )
    wall = time.perf_counter() - wall_start
    jobs = len(results)
    iterations = sum(result.iterations for result in results)
    lines = [
        f"Served {_throughput(jobs, iterations, wall)}",
        f"  gateway: {config.exec_workers} execution worker(s), "
        f"{config.analysis_workers} analysis worker(s), "
        f"admission bound {config.max_pending}",
        f"  backend: {results[0].backend}" if results else "  (no jobs)",
    ]
    # Each distinct fallback once, in the order the jobs first named it.
    fallbacks = dict.fromkeys(result.fallback for result in results if result.fallback)
    lines.extend(f"  note: {fallback}" for fallback in fallbacks)
    return "\n".join(lines)


def _cmd_compare(nest: LoopNest, args, session: Session) -> str:
    case = WorkloadCase(name=nest.name, nest=nest, category="user")
    methods = None
    if args.no_cache:
        # The pdm method is the only cached one; swap in a cold variant.
        methods = dict(ALL_METHODS)
        methods["pdm"] = lambda nest: pdm_method(nest, use_cache=False)
    rows = compare_methods([case], methods=methods)
    lines = [comparison_table(rows), ""]
    for method, result in rows[0].results:
        lines.append(f"{method}: {result.describe()}")
    return "\n".join(lines)


def _cmd_figures(nest: LoopNest, args, session: Session) -> str:
    report, _ = _report_for(nest, session)
    transformed = TransformedLoopNest.from_report(report)
    isdg = build_isdg(nest)
    stats = compute_statistics(isdg, transformed)
    lines = [stats.describe(), ""]
    if nest.depth == 2:
        lines.append("Dependent (o) / independent (.) iterations:")
        lines.append(render_ascii_grid(isdg))
        lines.append("")
        if transformed.partitioning is not None:
            labels = partition_labels_of_iterations(isdg, transformed)
            lines.append("Partition labels:")
            lines.append(render_partition_grid(isdg, labels))
            lines.append("")
    lines.append(render_distance_histogram(isdg))
    return "\n".join(lines)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "codegen": _cmd_codegen,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "figures": _cmd_figures,
    "run": _cmd_run,
}

# Commands that consume every loop file at once instead of one at a time.
_BATCH_COMMANDS = {
    "batch": _cmd_batch,
    "serve": _cmd_serve,
}

_COMMAND_HELP = {
    "analyze": "print the analysis report, schedule statistics and pass timings",
    "codegen": "emit the original and transformed Python sources",
    "verify": "differentially check the transformation on every backend",
    "compare": "compare the paper's method against the related-work baselines",
    "figures": "render the ISDG figures and distance histogram",
    "run": "execute the parallelized nest and report timing",
    "batch": "serve all files as one batch through Session.map",
    "serve": "serve all files concurrently through the async gateway (demo)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loop",
        description="Analyse and parallelize affine loop nests (Yu & D'Hollander, ICPP 2000).",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="command", help="what to do with the loop"
    )
    for command in sorted(set(_COMMANDS) | set(_BATCH_COMMANDS)):
        sub = subparsers.add_parser(
            command, help=_COMMAND_HELP[command], description=_COMMAND_HELP[command]
        )
        sub.add_argument(
            "loop_files",
            nargs="+",
            metavar="loop_file",
            help="one or more loop description files (processed in order; the "
            "first parse failure aborts with a nonzero exit code)",
        )
        _add_session_options(sub)
        if command in _BATCH_COMMANDS:
            sub.add_argument(
                "--repeat",
                type=int,
                default=1,
                help="submit the job list this many times (structural "
                "duplicates share one analysis through the cache; default: 1)",
            )
        if command == "serve":
            sub.add_argument(
                "--max-pending",
                type=int,
                default=32,
                help="gateway admission bound: jobs in flight before new "
                "submissions wait for capacity (default: 32)",
            )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``repro-loop`` console script.

    Processes the given loop files in order and stops with a nonzero exit
    code at the first file that cannot be read or parsed.  One session
    (cache + executor) serves the whole invocation.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if "--dump-docs" in argv:
        # Emit the generated CLI reference (docs/cli.md) and exit: handled
        # before argparse because the flag is global, not per-command.
        from repro.cli_docs import render_cli_docs

        print(render_cli_docs(build_parser()))
        return 0
    parser = build_parser()
    args = parser.parse_args(argv)
    # The run command verifies every execution against the interpreter
    # reference; the other commands do not execute through the session.
    overrides = {"verify": "always"} if args.command == "run" else {}
    try:
        session = session_from_args(args, **overrides)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with session:
        if args.command in _BATCH_COMMANDS:
            nests: List[LoopNest] = []
            for path in args.loop_files:
                try:
                    nests.append(parse_loop_file(path))
                except FileNotFoundError:
                    print(f"error: no such file: {path}", file=sys.stderr)
                    return 2
                except ReproError as exc:
                    print(f"error: {path}: {exc}", file=sys.stderr)
                    return 1
            try:
                print(_BATCH_COMMANDS[args.command](nests, args, session))
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        multiple = len(args.loop_files) > 1
        for path in args.loop_files:
            try:
                nest = parse_loop_file(path)
                output = _COMMANDS[args.command](nest, args, session)
            except FileNotFoundError:
                print(f"error: no such file: {path}", file=sys.stderr)
                return 2
            except ReproError as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 1
            if multiple:
                print(f"=== {path} ===")
            print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
