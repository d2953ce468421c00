"""Command-line interface.

Subcommands:

- ``analyze FILE`` — run one configuration on a MiniFortran program and
  report CONSTANTS sets, substitution counts, and (optionally) the
  transformed source or the IR;
- ``link FILE...`` — resolve many files into one whole program
  (EXTERNAL/COMMON linkage, ``--entry`` selection) and analyze the
  linked call graph; link failures exit 2 with ``E005`` diagnostics;
- ``optimize FILE`` — run the IPCP-driven optimization pipeline
  (constant folding, branch folding + DCE, loop unswitching, call
  argument materialization) and report per-pass changes; ``analyze``/
  ``link``/``batch`` expose the same pipeline as ``--optimize``;
- ``compare FILE`` — run all four forward jump functions side by side;
- ``run FILE`` — execute a program with the reference interpreter;
- ``clone FILE`` — goal-directed procedure cloning, before/after;
- ``integrate FILE`` — Wegman-Zadeck procedure integration, before/after;
- ``serve --socket PATH`` — long-lived analysis daemon on a unix
  socket: warm cache answers, bounded queue with overload shedding,
  per-request deadlines, graceful signal-driven drain;
- ``client OP [FILE] --socket PATH`` — query a running daemon
  (``analyze``/``explain``/``invalidate``/``status``/``shutdown``);
- ``suite`` — write the 12 benchmark programs to disk as .f files;
- ``tables`` — regenerate the study's Tables 1-3 on the bundled
  benchmark suite;
- ``oracle`` — differential-testing campaign: N seeded random programs
  executed through the reference interpreter and cross-checked against
  the analysis (soundness, semantic preservation, budget monotonicity),
  with failing cases minimized and written to a corpus directory.

This module runs the analysis requests (``analyze``, ``link``,
``optimize``, ``batch``); :mod:`repro.cli_tools` holds the other
subcommands. A process builds the parser of the subcommand it runs
only and imports the code of that subcommand only, since it pays for
every line it compiles.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import (
    AnalysisBudget,
    AnalysisConfig,
    BudgetExceeded,
    JumpFunctionKind,
)
from repro.frontend.errors import FrontendError

#: Exit codes (``analyze`` subcommand): 0 = clean analysis, 1 = source
#: diagnostics were reported, 2 = internal failure (IR verification,
#: budget escape with fault isolation off, unexpected crash).
#: Long-running subcommands (``batch``, ``serve``) exit with the
#: conventional 128+signum codes after a signal-driven drain.
EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_INTERNAL = 2
EXIT_SIGINT = 130
EXIT_SIGTERM = 143


class _SignalInterrupt(Exception):
    """Raised by the batch signal handlers so an in-flight pool wait
    unwinds through ordinary exception handling (clean shutdown, flush,
    conventional exit code) instead of dying in a traceback."""

    def __init__(self, signum: int):
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


def _install_interrupt_handlers():
    """Route SIGINT/SIGTERM into :class:`_SignalInterrupt`; returns the
    previous handlers for restoration (no-op off the main thread)."""
    import signal

    def _handler(signum, frame):
        raise _SignalInterrupt(signum)

    previous = {}
    for name in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, name, None)
        if signum is None:
            continue
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):
            pass
    return previous


def _restore_interrupt_handlers(previous) -> None:
    import signal

    for signum, old in previous.items():
        try:
            signal.signal(signum, old)
        except (ValueError, OSError):
            pass

_KIND_ALIASES = {
    "literal": JumpFunctionKind.LITERAL,
    "intra": JumpFunctionKind.INTRAPROCEDURAL,
    "intraprocedural": JumpFunctionKind.INTRAPROCEDURAL,
    "pass": JumpFunctionKind.PASS_THROUGH,
    "pass-through": JumpFunctionKind.PASS_THROUGH,
    "poly": JumpFunctionKind.POLYNOMIAL,
    "polynomial": JumpFunctionKind.POLYNOMIAL,
}


def _count(least: int):
    """An argparse ``type``: an integer of at least ``least``, so a
    count out of range is a usage error (exit 2), not a traceback or a
    budget no run can meet."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}"
            ) from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}"
            )
        return value

    return count


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The analysis-configuration flags ``analyze`` and ``batch`` share
    (everything :func:`_config_from_args` reads except the per-run
    ``--strict``/``--verify-ir`` pair, which stays analyze-only)."""
    parser.add_argument(
        "--jump",
        default="poly",
        choices=sorted(_KIND_ALIASES),
        help="forward jump function implementation (default: poly)",
    )
    parser.add_argument(
        "--no-returns", action="store_true", help="disable return jump functions"
    )
    parser.add_argument(
        "--no-mod", action="store_true", help="disable MOD side-effect information"
    )
    parser.add_argument(
        "--complete",
        action="store_true",
        help="iterate propagation with dead-code elimination",
    )
    parser.add_argument(
        "--intra-only",
        action="store_true",
        help="purely intraprocedural propagation (with MOD)",
    )
    parser.add_argument(
        "--gsa",
        action="store_true",
        help="GSA-style refinement (complete-propagation results, no DCE)",
    )
    parser.add_argument(
        "--solver-fuel",
        type=_count(0),
        default=None,
        metavar="N",
        help="cap interprocedural propagation at N procedure visits",
    )
    parser.add_argument(
        "--sccp-fuel",
        type=_count(0),
        default=None,
        metavar="N",
        help="cap each SCCP run at N instruction evaluations",
    )
    parser.add_argument(
        "--max-poly-terms",
        type=_count(0),
        default=None,
        metavar="N",
        help="demote polynomial jump functions larger than N terms",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        action="store_true",
        help="reuse procedure summaries across runs via the persistent "
        "cache (default location; see --cache-dir)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent summary cache directory (implies --cache; "
        "default: $REPRO_CACHE_DIR, $XDG_CACHE_HOME/repro, or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit per-stage timings and counters as JSON to FILE "
        "(default: stdout)",
    )
    parser.add_argument(
        "--explain-invalidation",
        action="store_true",
        help="with --cache: report which procedures were recomputed "
        "since the previous run of each file, and why",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record structured trace events and write Chrome "
        "trace-event JSON to FILE (loadable in Perfetto / "
        "chrome://tracing)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write Prometheus text-format metrics to FILE "
        "('-' = stdout)",
    )
    parser.add_argument(
        "--log",
        default=None,
        metavar="FILE",
        dest="log",
        help="write a structured JSON-lines log to FILE ('-' = stderr); "
        "every record carries the invocation's request_id/trace_id",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=("debug", "info", "warn", "error"),
        help="minimum severity for --log records (default: info)",
    )


def _add_optimize_arguments(parser: argparse.ArgumentParser) -> None:
    """The optimization-backend flags ``analyze``/``link``/``batch``
    share (``repro optimize`` spells them natively)."""
    parser.add_argument(
        "--optimize",
        action="store_true",
        help="run the IPCP-driven optimization pipeline on the analyzed "
        "program and report per-pass changes",
    )
    parser.add_argument(
        "--passes",
        default=None,
        metavar="LIST",
        help="with --optimize: comma-separated pass subset "
        "(fold,branches,unswitch,callargs; default: all)",
    )


def _analyze_arguments(analyze: argparse.ArgumentParser) -> None:
    analyze.add_argument("file", help="MiniFortran source file")
    _add_config_arguments(analyze)
    analyze.add_argument(
        "--transform",
        action="store_true",
        help="print the source with constants substituted",
    )
    analyze.add_argument(
        "--dump-ir", action="store_true", help="print the SSA IR after analysis"
    )
    analyze.add_argument(
        "--stats", action="store_true", help="print analysis statistics"
    )
    analyze.add_argument(
        "--explain",
        default=None,
        metavar="NAME@PROC",
        help="print the derivation tree of one VAL cell: how the value "
        "of NAME at PROC's entry was established (or which call-site "
        "meet killed it)",
    )
    analyze.add_argument(
        "--dot",
        metavar="DIR",
        default=None,
        help="write Graphviz files (call graph + one CFG per procedure)",
    )
    analyze.add_argument(
        "--strict",
        action="store_true",
        help="fail fast: no frontend recovery, no fault isolation, and "
        "any component demotion is an error",
    )
    analyze.add_argument(
        "--verify-ir",
        action="store_true",
        help="run the structural IR/SSA verifier between pipeline stages",
    )
    _add_optimize_arguments(analyze)
    _add_cache_arguments(analyze)


def _link_arguments(link: argparse.ArgumentParser) -> None:
    link.add_argument(
        "files", nargs="+", metavar="FILE",
        help="MiniFortran source files forming one program",
    )
    link.add_argument(
        "--entry", default=None, metavar="NAME",
        help="PROGRAM unit to use as the entry point (required when "
        "the files define more than one)",
    )
    _add_config_arguments(link)
    _add_cache_arguments(link)
    link.add_argument(
        "--symbols", action="store_true",
        help="print the program-level symbol table (unit -> defining "
        "file, COMMON block -> first declaration)",
    )
    link.add_argument(
        "--explain", default=None, metavar="NAME@PROC",
        help="print the derivation tree of one VAL cell of the linked "
        "program",
    )
    link.add_argument(
        "--stats", action="store_true", help="print analysis statistics"
    )
    link.add_argument(
        "--dump-ir", action="store_true",
        help="print the SSA IR after analysis",
    )
    _add_optimize_arguments(link)


def _batch_arguments(batch: argparse.ArgumentParser) -> None:
    batch.add_argument(
        "files", nargs="*", metavar="FILE",
        help="MiniFortran source files",
    )
    batch.add_argument(
        "--stdin-list",
        action="store_true",
        help="read additional file paths from stdin, one per line "
        "('#' lines are comments)",
    )
    _add_config_arguments(batch)
    batch.add_argument(
        "--jobs",
        type=_count(1),
        default=1,
        metavar="N",
        help="analyze files on N persistent pool workers (default: 1; "
        "per-file results are byte-identical at any N)",
    )
    _add_cache_arguments(batch)
    batch.add_argument(
        "--report",
        action="store_true",
        help="print each file's full CONSTANTS report, not just the "
        "one-line summary",
    )
    batch.add_argument(
        "--link",
        action="store_true",
        help="treat the files as one whole program (EXTERNAL/COMMON "
        "linkage) instead of N independent closed programs",
    )
    batch.add_argument(
        "--entry", default=None, metavar="NAME",
        help="with --link: PROGRAM unit to use as the entry point",
    )
    _add_optimize_arguments(batch)


def _optimize_arguments(optimize: argparse.ArgumentParser) -> None:
    optimize.add_argument("file", help="MiniFortran source file")
    _add_config_arguments(optimize)
    optimize.add_argument(
        "--passes",
        default=None,
        metavar="LIST",
        help="comma-separated pass subset "
        "(fold,branches,unswitch,callargs; default: all)",
    )
    optimize.add_argument(
        "--dump-ir",
        action="store_true",
        help="print the optimized (post-SSA) IR",
    )
    optimize.add_argument(
        "-o", "--output",
        default=None,
        metavar="FILE",
        help="write the optimized IR text to FILE",
    )
    optimize.add_argument(
        "--verify-ir",
        action="store_true",
        help="run the structural IR verifier after every optimization "
        "pass (disables the warm-cache replay path)",
    )
    _add_cache_arguments(optimize)


def _config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    if args.intra_only:
        config = AnalysisConfig.intraprocedural_only()
    else:
        config = AnalysisConfig(
            jump_function=_KIND_ALIASES[args.jump],
            use_return_functions=not args.no_returns,
            use_mod=not args.no_mod,
            complete=args.complete,
            gsa_refinement=args.gsa,
        )
    budget = AnalysisBudget(
        solver_visits=args.solver_fuel,
        sccp_visits=args.sccp_fuel,
        polynomial_terms=args.max_poly_terms,
    )
    return config.replace(
        budget=budget,
        fault_isolation=not getattr(args, "strict", False),
        verify_ir=getattr(args, "verify_ir", False),
    )


def _cache_dir_from_args(args: argparse.Namespace) -> Optional[str]:
    """The cache directory ``--cache``, ``--cache-dir`` or
    ``--explain-invalidation`` asks for; None when none of them is
    given."""
    if not (args.cache or args.cache_dir is not None
            or args.explain_invalidation):
        return None
    from repro.engine import default_cache_root

    return args.cache_dir or default_cache_root()


def _engine_from_args(args: argparse.Namespace):
    """Build an :class:`repro.engine.Engine` when a cache is requested;
    plain serial analysis (None) otherwise, so the default CLI path
    stays exactly the pre-engine pipeline."""
    cache_dir = _cache_dir_from_args(args)
    if cache_dir is None:
        return None
    from repro.engine import Engine

    return Engine(cache_dir=cache_dir)


def _start_profile(args: argparse.Namespace):
    """A started :class:`~repro.profiling.PipelineProfile` when
    ``--profile`` was given, else None."""
    if getattr(args, "profile", None) is None:
        return None
    from repro.profiling import PipelineProfile

    return PipelineProfile().start()


def _write_profile(text: str, destination: str) -> None:
    """``--profile`` output: a stdout section for ``-``, else a file."""
    if destination == "-":
        print("\n--- profile ---")
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"[profile written to {destination}]")


def _start_trace(args: argparse.Namespace):
    """Install the process tracer when ``--trace`` was given."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs import trace

    return trace.enable()


def _write_trace(args: argparse.Namespace, tracer) -> None:
    if tracer is None:
        return
    import json

    from repro.obs import trace

    trace.disable()
    payload = tracer.to_chrome()
    with open(args.trace, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    print(
        f"[trace written to {args.trace} "
        f"({len(payload['traceEvents'])} events)]",
        file=sys.stderr,
    )


def _write_metrics(args: argparse.Namespace, registry=None) -> None:
    if getattr(args, "metrics", None) is None:
        return
    from repro.obs import metrics

    text = (registry or metrics.default_registry()).to_prometheus()
    if args.metrics == "-":
        sys.stdout.write(text)
    else:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"[metrics written to {args.metrics}]", file=sys.stderr)


def _start_obs(args: argparse.Namespace, command: str):
    """Begin request-scoped telemetry for one CLI invocation: enable
    ``--log`` if given, and install a ``cli-<command>`` correlation
    context whenever any telemetry sink (log or trace) is active, so
    every record and every worker flow carries the same ids.

    Returns ``(logger, context)`` for :func:`_finish_obs`.
    """
    logger = None
    context = None
    if getattr(args, "log", None) is not None:
        from repro.obs import log as obs_log

        logger = obs_log.enable(
            args.log, level=getattr(args, "log_level", "info")
        )
    if logger is not None or getattr(args, "trace", None) is not None:
        from repro.obs import context as obs_context

        context = obs_context.RequestContext(f"cli-{command}")
        obs_context.set_context(context)
    if logger is not None:
        from repro.obs import log as obs_log

        obs_log.info("cli.start", command=command)
    return logger, context


def _flow_root(context, **attrs) -> None:
    """Emit the invocation's flow-root event (inside the root span):
    the "s" start that maps the flow id to the request id for
    ``repro obs report`` and the stitching check."""
    if context is None:
        return
    from repro.obs import context as obs_context
    from repro.obs import trace

    if trace.ENABLED:
        trace.flow(
            "request", "s", obs_context.flow_id(context.request_id),
            request_id=context.request_id, **attrs,
        )


def _finish_obs(args: argparse.Namespace, logger, context,
                exit_code=None) -> None:
    if logger is not None:
        from repro.obs import log as obs_log

        obs_log.info("cli.end", exit_code=exit_code)
        obs_log.disable()
        if args.log != "-":
            print(
                f"[log written to {args.log} "
                f"({logger.records_written} records)]",
                file=sys.stderr,
            )
    if context is not None:
        from repro.obs import context as obs_context

        if obs_context.current() is context:
            obs_context.clear()


def _cmd_request(args: argparse.Namespace, files=None) -> int:
    """``analyze``, ``link``, ``optimize`` and ``batch --link``: one
    :func:`repro.pipeline.run` request inside one telemetry bracket,
    printed by :func:`_render_outcome`. ``files`` (or ``link``'s own
    ``FILE...``) makes the request a linked project."""
    from repro.obs import trace

    files = files if files is not None else getattr(args, "files", None)
    if files is None:
        command = args.command
        span_attrs, flow_attrs = {"file": args.file}, {"path": args.file}
    else:
        command = "link"
        span_attrs = flow_attrs = {"files": len(files)}
    config = _config_from_args(args)
    engine = _engine_from_args(args)
    tracer = _start_trace(args)
    logger, context = _start_obs(args, command)
    profile = _start_profile(args)
    code: Optional[int] = None
    try:
        with trace.span(command, **span_attrs,
                        request_id=context.request_id if context else None):
            _flow_root(context, op=command, **flow_attrs)
            code = _run_request(args, files, config, engine)
            return code
    finally:
        if profile is not None:
            profile.stop()
            _write_profile(profile.to_json(), args.profile)
        if engine is not None:
            engine.close()
        _write_trace(args, tracer)
        _write_metrics(args)
        _finish_obs(args, logger, context, exit_code=code)


#: Flags that ask for a rendered section, and the section they ask for.
_SECTION_FLAGS = {
    "transform": "transform",
    "dump_ir": "ir",
    "output": "ir",
    "stats": "stats",
    "symbols": "symbols",
}


def _run_request(args: argparse.Namespace, files, config, engine) -> int:
    from repro import pipeline

    passes = None
    if args.command == "optimize" or getattr(args, "optimize", False):
        from repro.opt import parse_passes

        try:
            passes = parse_passes(args.passes)
        except ValueError as err:
            print(f"optimize: {err}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
    renders = {
        section for flag, section in _SECTION_FLAGS.items()
        if getattr(args, flag, None)
    }
    if args.command != "optimize":
        renders.add("constants")
    request = pipeline.Request(
        config,
        path=args.file if files is None else None,
        project=files,
        entry=getattr(args, "entry", None),
        explain=getattr(args, "explain", None),
        passes=passes,
        renders=frozenset(renders),
        dot=getattr(args, "dot", None),
        strict=getattr(args, "strict", False),
    )
    return _render_outcome(args, request, pipeline.run(request, engine))


def _render_outcome(args: argparse.Namespace, request, outcome) -> int:
    """Print one pipeline outcome and return the exit code. A replayed
    outcome carries the same sections as a live one, so both print the
    same bytes."""
    from repro.ipcp.resilience import summarize_demotions
    from repro.pipeline import DIAGNOSTICS, ERROR

    if outcome.diagnostics:
        print(outcome.diagnostics, file=sys.stderr)
    if outcome.status == ERROR:
        if not outcome.diagnostics:
            print(outcome.summary_line(), file=sys.stderr)
        return EXIT_DIAGNOSTICS
    if outcome.status == DIAGNOSTICS:
        from repro.diagnostics import E_LINK

        if E_LINK in outcome.error_codes:
            return EXIT_INTERNAL
        return EXIT_DIAGNOSTICS
    print(f"configuration: {outcome.config}")
    if request.project is not None:
        print(f"linked {len(request.project)} file(s) -> "
              f"{len(outcome.per_procedure)} procedure(s)")
    if outcome.symbols is not None:
        print("\n--- symbol table ---")
        print(outcome.symbols)
    if "constants" in request.renders:
        print(outcome.constants_report)
        print(f"substituted constant references: {outcome.substituted}")
        for name, count in sorted(outcome.per_procedure.items()):
            if count:
                print(f"  {name}: {count}")
    if outcome.opt_report is not None:
        print(outcome.opt_report)
    code = EXIT_OK
    if request.explain is not None:
        print(f"\n--- explain {request.explain} ---")
        if outcome.explain_error is not None:
            print(f"explain: {outcome.explain_error}", file=sys.stderr)
            code = EXIT_DIAGNOSTICS
        else:
            sys.stdout.write(outcome.explain)
    if outcome.transformed_source is not None:
        print("\n--- transformed source ---")
        print(outcome.transformed_source)
    if getattr(args, "dump_ir", False):
        header = "SSA IR" if request.passes is None else "optimized IR"
        print(f"\n--- {header} ---")
        print(outcome.ir)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(outcome.ir + "\n")
        print(f"[optimized IR written to {args.output}]")
    if outcome.stats is not None:
        print("\n--- statistics ---")
        print(outcome.stats)
    if outcome.dot_files is not None:
        print(f"[{outcome.dot_files} Graphviz files written to {request.dot}]")
    if args.explain_invalidation and outcome.invalidation is not None:
        from repro.engine.incremental import format_invalidation

        print("\n--- invalidation ---")
        print(format_invalidation(outcome.invalidation))
    if outcome.degraded:
        print("\n--- degraded components ---", file=sys.stderr)
        print(summarize_demotions(outcome.degraded), file=sys.stderr)
        if request.strict:
            return EXIT_INTERNAL
    if outcome.error_codes:
        return EXIT_DIAGNOSTICS
    return code


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.engine.batch import read_stdin_list, run_batch

    config = _config_from_args(args)
    if config.complete:
        # The driver imports complete propagation on first use; load it
        # (and its dead-code elimination) before the pool forks, so no
        # worker compiles it again. The rest of the analysis path is
        # already loaded.
        import repro.ipcp.complete  # noqa: F401
    opt_passes = None
    if getattr(args, "optimize", False) and not getattr(args, "link", False):
        from repro.opt import parse_passes

        try:
            opt_passes = parse_passes(args.passes)
        except ValueError as err:
            print(f"optimize: {err}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
    paths = list(args.files)
    if args.stdin_list:
        paths.extend(read_stdin_list(sys.stdin))
    if not paths:
        print("batch: no input files", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    if getattr(args, "link", False):
        # Whole-program mode: the file set is one linked program, not
        # N independent ones — the ``link`` request (same flags, same
        # exit-code contract: 2 on link failure).
        return _cmd_request(args, paths)
    if len(paths) > 1:
        from repro.engine.batch import duplicate_units_across_files

        for name, where in sorted(
            duplicate_units_across_files(paths).items()
        ):
            print(
                f"[note: unit {name!r} is defined in "
                f"{', '.join(where)}; files are analyzed as independent "
                f"closed programs (shared caches stay keyed per file) — "
                f"use --link to resolve them into one program]",
                file=sys.stderr,
            )
    cache_dir = _cache_dir_from_args(args)
    tracer = _start_trace(args)
    logger, context = _start_obs(args, "batch")
    previous_handlers = _install_interrupt_handlers()
    interrupted: Optional[int] = None
    try:
        result = run_batch(
            paths,
            config,
            jobs=args.jobs,
            cache_dir=cache_dir,
            want_profile=args.profile is not None,
            explain=args.explain_invalidation,
            want_metrics=args.metrics is not None or args.report,
            want_trace=tracer is not None,
            optimize=opt_passes,
        )
    except _SignalInterrupt as err:
        interrupted = err.signum
    except KeyboardInterrupt:
        interrupted = EXIT_SIGINT - 128
    finally:
        _restore_interrupt_handlers(previous_handlers)
        _write_trace(args, tracer)
    if interrupted is not None:
        # Signal-driven drain: the pool shutdown already ran on the way
        # out of run_batch; flush whatever observability artifacts were
        # requested (partial by construction) and exit 128+signum
        # instead of unwinding into a traceback mid-pool.
        _write_metrics(args)
        print(
            f"[batch interrupted by signal {interrupted}: pool shut "
            f"down, partial artifacts flushed]",
            file=sys.stderr,
        )
        _finish_obs(args, logger, context, exit_code=128 + interrupted)
        return 128 + interrupted
    for note in result.notes:
        print(f"[degraded: {note}]", file=sys.stderr)
    for outcome in result.files:
        print(outcome.summary_line())
        if args.report and outcome.constants_report is not None:
            print(outcome.constants_report)
        if args.report and outcome.opt_report is not None:
            print(outcome.opt_report)
        if outcome.diagnostics and not outcome.error:
            print(outcome.diagnostics, file=sys.stderr)
        if args.explain_invalidation and outcome.invalidation is not None:
            from repro.engine.incremental import format_invalidation

            print(format_invalidation(outcome.invalidation))
    totals = result.totals()
    print(
        f"[{totals['files']} file(s), jobs={totals['jobs']}: "
        f"{totals['by_status'].get('ok', 0)} ok, "
        f"{totals['by_status'].get('diagnostics', 0)} with diagnostics, "
        f"{totals['by_status'].get('error', 0)} failed, "
        f"{totals['replayed']} replayed]"
    )
    merged = result.merged_metrics()
    if args.report and merged is not None:
        print("\n--- metrics (aggregated) ---")
        for name, value in merged.counters().items():
            print(f"  {name} {value}")
        histogram = merged.get_histogram("batch_file_seconds")
        if histogram is not None and histogram.count > 0:
            marks = histogram.percentiles()
            rendered = "  ".join(
                f"{label}={marks[label] * 1000:.3f}ms"
                for label in ("p50", "p95", "p99")
            )
            print(f"  batch_file_seconds {rendered}")
    _write_metrics(args, registry=merged)
    if args.profile is not None:
        _write_profile(
            json.dumps(result.profile_report(), indent=2), args.profile
        )
    code = EXIT_OK if result.ok else EXIT_DIAGNOSTICS
    _finish_obs(args, logger, context, exit_code=code)
    return code


#: Every subcommand's help line, in the order ``--help`` lists them.
_HELP = {
    "analyze": "analyze one program",
    "link": "link many files into one whole program and analyze it",
    "batch": "analyze many programs against one worker pool",
    "optimize": "run the IPCP-driven optimization pipeline on one program",
    "serve": "run the long-lived analysis daemon on a unix socket",
    "client": "query a running 'repro serve' daemon",
    "top": "live per-request view of a running daemon (polls the 'obs' op)",
    "obs": "offline telemetry analysis (logs, traces, metrics)",
    "compare": "compare all four jump functions",
    "run": "execute a program with the interpreter",
    "clone": "procedure cloning on conflicts",
    "integrate": "procedure integration (Wegman-Zadeck comparator)",
    "suite": "write the benchmark suite programs to a directory",
    "tables": "regenerate the paper's tables",
    "oracle": "run the interpreter-backed differential oracle",
}

#: ``name -> (adds its arguments, runs it)`` for the subcommands this
#: module runs; :data:`repro.cli_tools.COMMANDS` holds the others.
_REQUESTS = {
    "analyze": (_analyze_arguments, _cmd_request),
    "link": (_link_arguments, _cmd_request),
    "batch": (_batch_arguments, _cmd_batch),
    "optimize": (_optimize_arguments, _cmd_request),
}


def _command(name: str):
    """``(adds its arguments, runs it)`` of subcommand ``name``; only
    the subcommands outside :data:`_REQUESTS` import
    :mod:`repro.cli_tools`."""
    if name in _REQUESTS:
        return _REQUESTS[name]
    from repro.cli_tools import COMMANDS

    return COMMANDS[name]


def _invoked(argv: List[str]) -> Optional[str]:
    """The subcommand ``argv`` names: its first argument that is not an
    option (the top-level parser takes no option but ``-h``), or None
    when that is no subcommand."""
    for arg in argv:
        if not arg.startswith("-"):
            return arg if arg in _HELP else None
    return None


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser, listing every subcommand; only ``command``'s
    parser gets its arguments (none without one), since a process runs
    one subcommand and building the rest would cost every process the
    time to build them."""
    parser = argparse.ArgumentParser(
        prog="repro-ipcp",
        description="Interprocedural constant propagation with jump functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _HELP.items():
        subparser = sub.add_parser(name, help=help_text)
        if name == command:
            _command(name)[0](subparser)
    return parser


def _verification_error():
    """The verifier's ``VerificationError``, or ``()`` (matches nothing)
    when no verifier was loaded: only a request that ran the verifier
    can raise one, so a plain request never imports it. An ``except``
    clause evaluates this only once an exception reaches it."""
    verify = sys.modules.get("repro.ir.verify")
    return () if verify is None else verify.VerificationError


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = _invoked(argv)
    args = _build_parser(command).parse_args(argv)
    try:
        return _command(args.command)[1](args)
    except FrontendError as err:
        location = f"{err.location}: " if err.location is not None else ""
        print(f"{location}error: {err.message}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except BudgetExceeded as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except _verification_error() as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> int:
    """The process entry point (``python -m repro``, ``python -m
    repro.cli``, the ``repro-ipcp`` script): :func:`main`, then
    ``gc.freeze()`` so the interpreter's exit does not walk everything
    the request left allocated in its final collections. :func:`main`
    itself never freezes, since tests run it in-process many times."""
    code = main()
    import gc

    gc.freeze()
    return code


if __name__ == "__main__":
    # ``python -m repro.cli`` runs this file as ``__main__``. Listing it
    # under its own name too lets ``repro.cli_tools`` import its helpers
    # from it instead of compiling the file a second time.
    sys.modules.setdefault("repro.cli", sys.modules[__name__])
    sys.exit(entry_point())
