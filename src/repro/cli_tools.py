"""The subcommands that are not analysis requests: the daemon and its
clients (``serve``, ``client``, ``top``), offline telemetry (``obs``),
the paper's side experiments (``compare``, ``run``, ``clone``,
``integrate``), the benchmark suite (``suite``, ``tables``) and the
differential oracle (``oracle``).

:func:`repro.cli.main` imports this module only to run one of these,
so an ``analyze``, ``link``, ``optimize`` or ``batch`` process never
compiles it; each handler imports what it runs when it runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    EXIT_DIAGNOSTICS,
    EXIT_INTERNAL,
    EXIT_OK,
    _add_config_arguments,
    _config_from_args,
    _start_profile,
    _write_profile,
)


def _serve_arguments(serve: argparse.ArgumentParser) -> None:
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


def _client_arguments(client: argparse.ArgumentParser) -> None:
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


def _top_arguments(top: argparse.ArgumentParser) -> None:
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


def _obs_arguments(obs: argparse.ArgumentParser) -> None:
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


def _compare_arguments(compare: argparse.ArgumentParser) -> None:
    compare.add_argument("file", help="MiniFortran source file")


def _run_arguments(run: argparse.ArgumentParser) -> None:
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


def _clone_arguments(clone: argparse.ArgumentParser) -> None:
    clone.add_argument("file", help="MiniFortran source file")
    clone.add_argument(
        "--max-clones", type=int, default=4, help="clones per procedure cap"
    )


def _integrate_arguments(integrate: argparse.ArgumentParser) -> None:
    integrate.add_argument("file", help="MiniFortran source file")
    integrate.add_argument("--depth", type=int, default=6, help="inline rounds")


def _suite_arguments(suite: argparse.ArgumentParser) -> None:
    suite.add_argument(
        "--out", default="suite_programs", help="output directory"
    )


def _tables_arguments(tables: argparse.ArgumentParser) -> None:
    tables.add_argument(
        "--table",
        type=int,
        choices=(1, 2, 3),
        default=None,
        help="which table (default: all)",
    )


def _oracle_arguments(oracle: argparse.ArgumentParser) -> None:
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
    from repro.config import AnalysisConfig, JumpFunctionKind
    from repro.ipcp.driver import analyze_file

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
    from repro.config import AnalysisConfig
    from repro.frontend.parser import parse_file
    from repro.ipcp.driver import analyze_file
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


#: ``name -> (adds its arguments, runs it)`` for every subcommand here.
COMMANDS = {
    "serve": (_serve_arguments, _cmd_serve),
    "client": (_client_arguments, _cmd_client),
    "top": (_top_arguments, _cmd_top),
    "obs": (_obs_arguments, _cmd_obs),
    "compare": (_compare_arguments, _cmd_compare),
    "run": (_run_arguments, _cmd_run),
    "clone": (_clone_arguments, _cmd_clone),
    "integrate": (_integrate_arguments, _cmd_integrate),
    "suite": (_suite_arguments, _cmd_suite),
    "tables": (_tables_arguments, _cmd_tables),
    "oracle": (_oracle_arguments, _cmd_oracle),
}
