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
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.config import AnalysisBudget, AnalysisConfig, BudgetExceeded, JumpFunctionKind
from repro.frontend.errors import FrontendError
from repro.ipcp.driver import analyze_file

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
        type=int,
        default=None,
        metavar="N",
        help="cap interprocedural propagation at N procedure visits",
    )
    parser.add_argument(
        "--sccp-fuel",
        type=int,
        default=None,
        metavar="N",
        help="cap each SCCP run at N instruction evaluations",
    )
    parser.add_argument(
        "--max-poly-terms",
        type=int,
        default=None,
        metavar="N",
        help="demote polynomial jump functions larger than N terms",
    )
    parser.add_argument(
        "--solver",
        default="fifo",
        choices=("fifo", "lifo", "priority"),
        help="interprocedural worklist discipline (default: fifo; the "
        "fixpoint is identical, only the work differs)",
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ipcp",
        description="Interprocedural constant propagation with jump functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one program")
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

    link = sub.add_parser(
        "link",
        help="link many files into one whole program and analyze it",
    )
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

    batch = sub.add_parser(
        "batch", help="analyze many programs against one worker pool"
    )
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
        type=int,
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

    optimize = sub.add_parser(
        "optimize",
        help="run the IPCP-driven optimization pipeline on one program",
    )
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

    serve = sub.add_parser(
        "serve",
        help="run the long-lived analysis daemon on a unix socket",
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path to listen on",
    )
    _add_config_arguments(serve)
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent cache directory (default: the standard cache "
        "root — a daemon without its caches answers nothing warm)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="run without the persistent cache (every analyze is cold)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="bounded request queue depth; beyond it requests are shed "
        "with an 'overloaded' error and a retry_after hint (default: 16)",
    )
    serve.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="default per-request deadline; requests may override via "
        "params.deadline_ms; 0 = unlimited (default: 30)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="grace period for queued/in-flight work after SIGTERM/"
        "SIGINT/shutdown before the rest is cancelled (default: 5)",
    )
    serve.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write Prometheus text-format metrics to FILE at drain",
    )
    serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write Chrome trace-event JSON to FILE at drain",
    )
    serve.add_argument(
        "--log", default=None, metavar="FILE",
        help="write a structured JSON-lines request log to FILE "
        "('-' = stderr); every record carries a request_id",
    )
    serve.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warn", "error"),
        help="minimum severity for --log records (default: info)",
    )
    serve.add_argument(
        "--slow-request", type=float, default=None, metavar="SECONDS",
        help="log a 'request.slow' record (stage timings + cache "
        "profile) for any request slower than SECONDS end to end",
    )
    serve.add_argument(
        "--obs-window", type=int, default=256, metavar="N",
        help="per-request ring buffer capacity behind 'repro top' and "
        "the 'obs' protocol op (default: 256)",
    )
    serve.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="arm a deterministic fault (repeatable), e.g. "
        "'corrupt-cache:namespace=run' or 'delay-request:ms=200'; "
        "see repro.faults for the registry",
    )

    client = sub.add_parser(
        "client", help="query a running 'repro serve' daemon"
    )
    client.add_argument(
        "op", choices=("analyze", "explain", "invalidate", "status",
                       "obs", "shutdown"),
        help="operation to request",
    )
    client.add_argument(
        "file", nargs="*", default=[],
        help="input file (analyze/explain/invalidate); several files "
        "are sent as one linked-project manifest",
    )
    client.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path of the daemon",
    )
    client.add_argument(
        "--entry", default=None, metavar="NAME",
        help="entry PROGRAM unit for a linked-project request",
    )
    client.add_argument(
        "--explain", default=None, metavar="NAME@PROC",
        help="also render the derivation of one VAL cell "
        "(analyze/explain)",
    )
    client.add_argument(
        "--deadline-ms", type=int, default=None, metavar="N",
        help="per-request deadline override in milliseconds",
    )
    client.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="client-side socket timeout (default: 30)",
    )
    client.add_argument(
        "--json", action="store_true",
        help="print the raw response envelope as JSON",
    )
    client.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="op 'obs': newest ring-buffer requests to include",
    )

    top = sub.add_parser(
        "top",
        help="live per-request view of a running daemon (polls the "
        "'obs' op)",
    )
    top.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix socket path of the daemon",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default: 2)",
    )
    top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (default: 0 = until interrupted)",
    )
    top.add_argument(
        "--limit", type=int, default=10, metavar="N",
        help="newest ring-buffer requests to show (default: 10)",
    )
    top.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="client-side socket timeout (default: 30)",
    )

    obs = sub.add_parser(
        "obs", help="offline telemetry analysis (logs, traces, metrics)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="join telemetry artifacts by request_id into a "
        "per-request stage breakdown table",
    )
    obs_report.add_argument(
        "artifact", nargs="+", metavar="TRACE_OR_LOG",
        help="artifact files: JSONL logs (--log), Chrome traces "
        "(--trace), Prometheus metrics (--metrics); kinds are "
        "auto-detected from content",
    )

    compare = sub.add_parser("compare", help="compare all four jump functions")
    compare.add_argument("file", help="MiniFortran source file")

    run = sub.add_parser("run", help="execute a program with the interpreter")
    run.add_argument("file", help="MiniFortran source file")
    run.add_argument(
        "--input",
        type=int,
        action="append",
        default=[],
        help="integer fed to READ statements (repeatable)",
    )
    run.add_argument(
        "--fuel", type=int, default=10_000_000, help="instruction budget"
    )

    clone = sub.add_parser("clone", help="procedure cloning on conflicts")
    clone.add_argument("file", help="MiniFortran source file")
    clone.add_argument(
        "--max-clones", type=int, default=4, help="clones per procedure cap"
    )

    integrate = sub.add_parser(
        "integrate", help="procedure integration (Wegman-Zadeck comparator)"
    )
    integrate.add_argument("file", help="MiniFortran source file")
    integrate.add_argument("--depth", type=int, default=6, help="inline rounds")

    suite = sub.add_parser(
        "suite", help="write the benchmark suite programs to a directory"
    )
    suite.add_argument(
        "--out", default="suite_programs", help="output directory"
    )

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument(
        "--table",
        type=int,
        choices=(1, 2, 3),
        default=None,
        help="which table (default: all)",
    )

    oracle = sub.add_parser(
        "oracle", help="run the interpreter-backed differential oracle"
    )
    oracle.add_argument(
        "--trials", type=int, default=50, metavar="N",
        help="number of seeded trials (default: 50)",
    )
    oracle.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="first seed; trials use S..S+N-1 (default: 0)",
    )
    oracle.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="directory for minimized counterexamples (only written on failure)",
    )
    oracle.add_argument(
        "--procedures", type=int, default=None, metavar="K",
        help="procedures per generated program",
    )
    oracle.add_argument(
        "--max-statements", type=int, default=None, metavar="M",
        help="statement budget per generated procedure",
    )
    oracle.add_argument(
        "--property",
        action="append",
        choices=("soundness", "preservation", "monotonicity"),
        default=None,
        help="check only these properties (repeatable; default: all)",
    )
    oracle.add_argument(
        "--no-minimize", action="store_true",
        help="skip counterexample shrinking on failure",
    )
    oracle.add_argument(
        "--link-trials", type=int, default=None, metavar="N",
        help="run N partition-invariance trials instead of the "
        "standard campaign: each seeded program is split into K files "
        "(with generated EXTERNAL declarations), linked, and the "
        "linked analysis must be byte-identical to the unsplit one",
    )
    oracle.add_argument(
        "--opt-trials", type=int, default=None, metavar="N",
        help="run N differential-equivalence trials instead of the "
        "standard campaign: each seeded program is optimized under "
        "every pass subset and must interpret byte-identically to the "
        "unoptimized original; failures are minimized like the "
        "soundness campaign's",
    )
    oracle.add_argument(
        "--max-partitions", type=int, default=4, metavar="K",
        help="with --link-trials: maximum number of files per split "
        "(default: 4)",
    )
    oracle.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="emit campaign stage timings and counters (memo hits, "
        "parses) as JSON to FILE (default: stdout)",
    )
    return parser


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
    return replace(
        config,
        budget=budget,
        solver_strategy=getattr(args, "solver", "fifo"),
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


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import faults
    from repro.engine import default_cache_root
    from repro.serve.server import ReproServer, ServeConfig, SocketBusyError

    if args.inject_fault:
        try:
            plan = faults.install(args.inject_fault)
        except faults.FaultSpecError as err:
            print(f"serve: bad --inject-fault: {err}", file=sys.stderr)
            return EXIT_INTERNAL
        for line in plan.describe():
            print(f"[fault armed: {line}]", file=sys.stderr)
    cache_dir = (
        None if args.no_cache else (args.cache_dir or default_cache_root())
    )
    config = ServeConfig(
        socket_path=args.socket,
        analysis=_config_from_args(args),
        cache_dir=cache_dir,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline if args.deadline > 0 else None,
        drain_timeout_s=args.drain_timeout,
        metrics_path=args.metrics,
        trace_path=args.trace,
        log_path=args.log,
        log_level=args.log_level,
        slow_request_s=args.slow_request,
        obs_window=args.obs_window,
    )
    try:
        server = ReproServer(config)
        return server.serve_forever()
    except SocketBusyError as err:
        print(f"serve: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ReproClient, ServeRequestError
    from repro.serve.protocol import PATH_OPS

    if args.op in PATH_OPS and not args.file:
        print(f"client: op {args.op!r} requires a file", file=sys.stderr)
        return EXIT_INTERNAL
    project = args.file if len(args.file) > 1 or args.entry else None
    single = args.file[0] if args.file else None
    try:
        client = ReproClient(args.socket, timeout=args.timeout)
    except OSError as err:
        print(f"client: cannot connect to {args.socket}: {err}",
              file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.op == "analyze":
            if project is not None:
                response = client.analyze_project(
                    project, entry=args.entry,
                    deadline_ms=args.deadline_ms, explain=args.explain,
                )
            else:
                response = client.analyze(
                    single, deadline_ms=args.deadline_ms,
                    explain=args.explain,
                )
        elif args.op == "explain":
            if args.explain is None:
                print("client: op 'explain' requires --explain NAME@PROC",
                      file=sys.stderr)
                return EXIT_INTERNAL
            if project is not None:
                response = client.analyze_project(
                    project, entry=args.entry,
                    deadline_ms=args.deadline_ms, explain=args.explain,
                )
            else:
                response = client.explain(
                    single, args.explain, deadline_ms=args.deadline_ms
                )
        elif args.op == "invalidate":
            if project is not None:
                response = client.invalidate_project(
                    project, entry=args.entry
                )
            else:
                response = client.invalidate(single)
        elif args.op == "status":
            response = client.status()
        elif args.op == "obs":
            response = client.obs(limit=getattr(args, "limit", None))
        else:
            response = client.shutdown()
    except ServeRequestError as err:
        print(f"client: {err}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except (ConnectionError, OSError) as err:
        print(f"client: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        client.close()
    if args.json:
        print(json.dumps(response, indent=2, sort_keys=True))
        return EXIT_OK
    return _render_client_response(args.op, response)


def _format_latency_ms(value) -> str:
    return f"{value * 1000:.3f}" if value is not None else "-"


def _render_obs_snapshot(result: dict) -> None:
    """Human rendering of one ``obs`` op payload — shared by
    ``repro client obs`` and each ``repro top`` refresh."""
    threshold = result.get("slow_threshold_s")
    print(
        f"requests seen: {result.get('requests_seen', 0)}  "
        f"(ring window {result.get('window')}, "
        f"slow {result.get('slow_requests', 0)}, "
        f"slow threshold "
        f"{f'{threshold}s' if threshold is not None else 'off'})"
    )
    latency = result.get("latency") or {}
    populated = {
        name: stats for name, stats in latency.items()
        if stats.get("count")
    }
    if populated:
        print(f"{'histogram':<34} {'count':>7} {'p50 ms':>10} "
              f"{'p95 ms':>10} {'p99 ms':>10}")
        for name in sorted(populated):
            stats = populated[name]
            print(
                f"{name:<34} {stats.get('count', 0):>7} "
                f"{_format_latency_ms(stats.get('p50')):>10} "
                f"{_format_latency_ms(stats.get('p95')):>10} "
                f"{_format_latency_ms(stats.get('p99')):>10}"
            )
    recent = result.get("recent") or []
    if recent:
        print()
        print(
            f"{'request':<10} {'op':<10} {'status':<16} "
            f"{'queue':>8} {'parse':>8} {'solve':>8} {'opt':>8} "
            f"{'render':>8} {'total':>9}"
        )
        for entry in recent:
            cells = " ".join(
                f"{entry.get(f'{bucket}_ms', 0):>8.1f}"
                for bucket in ("queue", "parse", "solve", "opt", "render")
            )
            print(
                f"{str(entry.get('request_id', '?')):<10} "
                f"{str(entry.get('op', '')):<10} "
                f"{str(entry.get('status', '?')):<16} "
                f"{cells} {entry.get('total_ms', 0):>9.1f}"
            )


def _render_client_response(op: str, response: dict) -> int:
    """Human rendering of a successful daemon response; the exit code
    mirrors the local subcommands (0 clean, 1 diagnostics/error)."""
    import json

    for note in response.get("degraded", []):
        print(f"[degraded: {note}]", file=sys.stderr)
    result = response.get("result", {})
    if "project" in result and "path" not in result:
        # Project responses carry the manifest; render one joined label.
        result = dict(result, path="+".join(result["project"]))
    if op in ("analyze", "explain"):
        status = result.get("status")
        if status == "error":
            print(f"{result.get('path')}: error: {result.get('error')}")
            return EXIT_DIAGNOSTICS
        if status == "diagnostics":
            print(result.get("diagnostics", ""), file=sys.stderr)
            return EXIT_DIAGNOSTICS
        suffix = "  [replayed]" if result.get("replayed") else ""
        print(
            f"{result.get('path')}: {result.get('total_pairs')} "
            f"constant(s), {result.get('substituted')} substituted{suffix}"
        )
        report = result.get("constants_report")
        if report:
            print(report)
        if "explain" in result:
            sys.stdout.write(result["explain"])
        if "explain_error" in result:
            print(f"explain: {result['explain_error']}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        if result.get("diagnostics"):
            print(result["diagnostics"], file=sys.stderr)
        return EXIT_OK
    if op == "invalidate":
        verdict = "evicted" if result.get("invalidated") else "not cached"
        print(f"{result.get('path')}: {verdict}")
        if result.get("error"):
            print(f"invalidate: {result['error']}", file=sys.stderr)
            return EXIT_DIAGNOSTICS
        return EXIT_OK
    if op == "status":
        for key in ("socket", "queue_depth", "queue_limit", "stopping",
                    "cache_dir"):
            print(f"{key}: {result.get(key)}")
        for line in result.get("faults", []):
            print(f"fault: {line}")
        counters = result.get("counters", {})
        for name in sorted(counters):
            print(f"  {name} {counters[name]}")
        return EXIT_OK
    if op == "obs":
        _render_obs_snapshot(result)
        return EXIT_OK
    print(json.dumps(result))  # shutdown and anything future
    return EXIT_OK


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll the daemon's ``obs`` op and render a live per-request view.

    Each refresh opens a fresh connection so the view survives daemon
    restarts; ``--iterations 0`` polls until interrupted."""
    import time as time_module

    from repro.serve.client import ReproClient, ServeRequestError

    iteration = 0
    try:
        while True:
            iteration += 1
            try:
                with ReproClient(
                    args.socket, timeout=args.timeout
                ) as client:
                    response = client.obs(limit=args.limit)
            except ServeRequestError as err:
                print(f"top: {err}", file=sys.stderr)
                return EXIT_DIAGNOSTICS
            except (ConnectionError, OSError) as err:
                print(f"top: {err}", file=sys.stderr)
                return EXIT_INTERNAL
            if iteration > 1:
                print()
            print(f"--- repro top: {args.socket} (refresh {iteration}) ---")
            _render_obs_snapshot(response.get("result", {}))
            if args.iterations and iteration >= args.iterations:
                return EXIT_OK
            time_module.sleep(args.interval)
    except KeyboardInterrupt:
        return EXIT_OK


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import timeline as obs_timeline

    artifacts = []
    for path in args.artifact:
        try:
            kind, parsed = obs_timeline.load_artifact(path)
        except (OSError, UnicodeDecodeError, ValueError) as err:
            print(f"obs report: cannot read {path}: {err}",
                  file=sys.stderr)
            return EXIT_INTERNAL
        if kind == "unknown":
            print(
                f"obs report: {path}: not a recognized log, trace, or "
                f"metrics artifact (skipped)",
                file=sys.stderr,
            )
            continue
        artifacts.append((kind, parsed))
    if not artifacts:
        print("obs report: no usable artifacts", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    report = obs_timeline.build_report(artifacts)
    sys.stdout.write(obs_timeline.render_report(report))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    header = f"{'jump function':>16} {'constants':>10} {'substituted refs':>17}"
    print(header)
    print("-" * len(header))
    for kind in JumpFunctionKind:
        result = analyze_file(args.file, AnalysisConfig(jump_function=kind))
        print(
            f"{kind.value:>16} {result.constants.total_pairs():>10} "
            f"{result.substituted_constants:>17}"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.frontend.parser import parse_file
    from repro.frontend.source import SourceFile
    from repro.ir.interp import run_program
    from repro.ir.lowering import lower_module

    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    program = lower_module(
        parse_file(args.file), SourceFile(args.file, text)
    )
    trace = run_program(program, inputs=args.input, fuel=args.fuel)
    for line in trace.output:
        print(line)
    print(f"[{trace.steps} instructions executed]")
    return 0


def _cmd_clone(args: argparse.Namespace) -> int:
    from repro.frontend.parser import parse_file
    from repro.frontend.source import SourceFile
    from repro.ipcp.cloning import clone_for_constants
    from repro.ir.lowering import lower_module

    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    program = lower_module(parse_file(args.file), SourceFile(args.file, text))
    report = clone_for_constants(
        program, max_clones_per_procedure=args.max_clones
    )
    print(f"substituted references before cloning: "
          f"{report.base.substituted_constants}")
    for original, clones in report.clones.items():
        print(f"  cloned {original} -> {', '.join(clones)}")
    print(f"substituted references after cloning:  "
          f"{report.final.substituted_constants} "
          f"(+{report.constants_gained})")
    return 0


def _cmd_integrate(args: argparse.Namespace) -> int:
    from repro.frontend.parser import parse_file
    from repro.frontend.source import SourceFile
    from repro.ipcp.inlining import integrate_and_propagate
    from repro.ir.lowering import lower_module

    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    baseline = analyze_file(args.file, AnalysisConfig())
    program = lower_module(parse_file(args.file), SourceFile(args.file, text))
    report = integrate_and_propagate(program, max_depth=args.depth)
    print(f"jump-function framework:  {baseline.substituted_constants} "
          f"substituted references")
    print(f"procedure integration:    {report.substituted_references} "
          f"substituted references")
    print(f"  calls inlined: {report.inlined_calls}, remaining: "
          f"{report.remaining_calls}, code growth: {report.code_growth:.1f}x")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.suite.programs import write_suite

    paths = write_suite(args.out)
    for path in paths:
        print(path)
    print(f"[{len(paths)} programs written to {args.out}]")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.suite.tables import format_table1, format_table2, format_table3

    wanted = (args.table,) if args.table else (1, 2, 3)
    formatters = {1: format_table1, 2: format_table2, 3: format_table3}
    for number in wanted:
        print(formatters[number]())
        print()
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.oracle.harness import (
        DEFAULT_ORACLE_CONFIG,
        PROPERTIES,
        run_oracle,
    )

    if args.link_trials is not None:
        return _cmd_oracle_link(args)
    if args.opt_trials is not None:
        return _cmd_oracle_opt(args)

    generator_config = DEFAULT_ORACLE_CONFIG
    if args.procedures is not None:
        generator_config = dc_replace(generator_config, procedures=args.procedures)
    if args.max_statements is not None:
        generator_config = dc_replace(
            generator_config, max_statements_per_procedure=args.max_statements
        )
    properties = tuple(args.property) if args.property else PROPERTIES

    dots = {"count": 0}

    def progress(trial) -> None:
        sys.stderr.write("s" if trial.skipped else "." if trial.ok else "F")
        dots["count"] += 1
        if dots["count"] % 50 == 0:
            sys.stderr.write(f" {dots['count']}/{args.trials}\n")
        sys.stderr.flush()

    profile = _start_profile(args)
    try:
        report = run_oracle(
            trials=args.trials,
            seed=args.seed,
            generator_config=generator_config,
            properties=properties,
            corpus_dir=args.corpus,
            minimize=not args.no_minimize,
            progress=progress,
        )
    finally:
        if profile is not None:
            profile.stop()
    sys.stderr.write("\n")
    print(report.summary())
    if profile is not None:
        _write_profile(profile.to_json(), args.profile)
    if not report.ok:
        if args.corpus:
            print(f"minimized counterexamples written to {args.corpus}/")
        return EXIT_DIAGNOSTICS
    return EXIT_OK


def _cmd_oracle_link(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.oracle.harness import DEFAULT_ORACLE_CONFIG
    from repro.oracle.partition import run_link_trials

    generator_config = DEFAULT_ORACLE_CONFIG
    if args.procedures is not None:
        generator_config = dc_replace(
            generator_config, procedures=args.procedures
        )
    if args.max_statements is not None:
        generator_config = dc_replace(
            generator_config, max_statements_per_procedure=args.max_statements
        )

    dots = {"count": 0}

    def progress(trial) -> None:
        sys.stderr.write("." if trial.ok else "F")
        dots["count"] += 1
        if dots["count"] % 50 == 0:
            sys.stderr.write(f" {dots['count']}/{args.link_trials}\n")
        sys.stderr.flush()

    report = run_link_trials(
        trials=args.link_trials,
        seed=args.seed,
        generator_config=generator_config,
        max_partitions=args.max_partitions,
        progress=progress,
    )
    sys.stderr.write("\n")
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_DIAGNOSTICS


def _cmd_oracle_opt(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from repro.oracle.equivalence import run_opt_oracle
    from repro.oracle.harness import DEFAULT_ORACLE_CONFIG

    generator_config = DEFAULT_ORACLE_CONFIG
    if args.procedures is not None:
        generator_config = dc_replace(
            generator_config, procedures=args.procedures
        )
    if args.max_statements is not None:
        generator_config = dc_replace(
            generator_config, max_statements_per_procedure=args.max_statements
        )

    dots = {"count": 0}

    def progress(trial) -> None:
        sys.stderr.write("s" if trial.skipped else "." if trial.ok else "F")
        dots["count"] += 1
        if dots["count"] % 50 == 0:
            sys.stderr.write(f" {dots['count']}/{args.opt_trials}\n")
        sys.stderr.flush()

    report = run_opt_oracle(
        trials=args.opt_trials,
        seed=args.seed,
        generator_config=generator_config,
        corpus_dir=args.corpus,
        minimize=not args.no_minimize,
        progress=progress,
    )
    sys.stderr.write("\n")
    print(report.summary())
    if not report.ok:
        if args.corpus:
            print(f"minimized counterexamples written to {args.corpus}/")
        return EXIT_DIAGNOSTICS
    return EXIT_OK


def _verification_error():
    """The verifier's ``VerificationError``, or ``()`` (matches nothing)
    when no verifier was loaded: only a request that ran the verifier
    can raise one, so a plain request never imports it. An ``except``
    clause evaluates this only once an exception reaches it."""
    verify = sys.modules.get("repro.ir.verify")
    return () if verify is None else verify.VerificationError


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_request,
        "link": _cmd_request,
        "batch": _cmd_batch,
        "optimize": _cmd_request,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "top": _cmd_top,
        "obs": _cmd_obs,
        "compare": _cmd_compare,
        "run": _cmd_run,
        "clone": _cmd_clone,
        "integrate": _cmd_integrate,
        "suite": _cmd_suite,
        "tables": _cmd_tables,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
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


if __name__ == "__main__":
    sys.exit(main())
