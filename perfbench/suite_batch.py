"""suite-batch: ``repro batch`` regenerating the paper's Tables 2-3.

Closed loop. Each op is one ``repro batch --jobs <nproc>`` over the 12
paper-suite programs under one distinct Table 2/3 configuration; each
cycle runs every configuration once, plus one default-configuration
``--optimize`` op, in seeded order. This is the paper's own experiment,
timed, and the only workload that runs the weaker jump functions,
complete propagation, the optimization passes and the batch process
pool. Every program is re-parsed under each configuration.
"""

from __future__ import annotations

import os
import random
import re
import time
from typing import Dict, List, Tuple

from common import (
    NPROC,
    BenchError,
    Outcome,
    TracedRun,
    child_env,
    end_to_end,
    median,
    run_repro,
    startup_probe,
)

NAME = "suite-batch"
#: Ops per requested second, rounded to whole cycles (never time-boxed).
OPS_PER_SECOND = 2.0
WARMUPS = 5

#: Op name -> extra ``repro batch`` flags. The nine distinct Table 2/3
#: configurations, then the optimize op.
OPS: Dict[str, List[str]] = {
    "poly": [],
    "pass": ["--jump", "pass"],
    "intra": ["--jump", "intra"],
    "literal": ["--jump", "literal"],
    "poly-noret": ["--no-returns"],
    "pass-noret": ["--jump", "pass", "--no-returns"],
    "no-mod": ["--no-mod"],
    "complete": ["--complete"],
    "intra-only": ["--intra-only"],
    "optimize": ["--optimize"],
}
TABLE_OPS = [name for name in OPS if name != "optimize"]

_LINE = re.compile(
    r"^(?P<path>\S+): (?P<pairs>\d+) constant\(s\), (?P<subst>\d+) "
    r"substituted(?:, optimized \((?P<changes>\d+) change\(s\)\))?$"
)


def config_of(name: str):
    """The AnalysisConfig ``repro batch`` builds from the op's flags."""
    from repro.config import AnalysisConfig, JumpFunctionKind

    table2 = AnalysisConfig.table2
    return {
        "poly": AnalysisConfig(),
        "pass": table2(JumpFunctionKind.PASS_THROUGH),
        "intra": table2(JumpFunctionKind.INTRAPROCEDURAL),
        "literal": table2(JumpFunctionKind.LITERAL),
        "poly-noret": table2(JumpFunctionKind.POLYNOMIAL, returns=False),
        "pass-noret": table2(JumpFunctionKind.PASS_THROUGH, returns=False),
        "no-mod": AnalysisConfig.polynomial_without_mod(),
        "complete": AnalysisConfig.complete_propagation(),
        "intra-only": AnalysisConfig.intraprocedural_only(),
        "optimize": AnalysisConfig(),
    }[name]


def parse_output(stdout: str, paths: List[str]) -> Dict[str, Tuple[int, int, int]]:
    """Per-program (constants, substituted, opt changes) from a batch
    summary; raises BenchError on anything else."""
    cells = {}
    lines = stdout.splitlines()
    for line in lines[:-1]:
        match = _LINE.match(line)
        if match is None:
            raise BenchError(f"unexpected batch line {line!r}")
        cells[match["path"]] = (
            int(match["pairs"]), int(match["subst"]),
            int(match["changes"] or 0),
        )
    footer = f"[{len(paths)} file(s), jobs={NPROC}: {len(paths)} ok, "
    if list(cells) != paths or not lines[-1].startswith(footer):
        raise BenchError("batch did not report every program ok")
    return cells


def run(seed: int, seconds: int, traced: bool, work: str) -> Outcome:
    from repro.suite.programs import write_suite

    rng = random.Random(seed)
    cycles = max(1, round(seconds * OPS_PER_SECOND / len(OPS)))
    sequence: List[str] = []
    for _ in range(cycles):
        round_ = list(OPS)
        rng.shuffle(round_)
        sequence.extend(round_)
    paths = write_suite(os.path.join(work, "suite"))
    env = child_env(os.path.join(work, "tmp"))
    outcome = Outcome()
    batch = ["batch", "--jobs", str(NPROC), *paths]

    for _ in range(WARMUPS):
        outcome.calibrate()
        result = run_repro(batch, env)
        if result.code != 0:
            raise BenchError(f"warm-up failed: {result.stderr[-500:]}")
        outcome.setup_s.append(result.seconds)

    stdouts: List[str] = []
    for op, name in enumerate(sequence):
        outcome.calibrate()
        result = run_repro(batch + OPS[name], env)
        outcome.op_ms.append(result.seconds * 1000.0)
        outcome.timed_s += result.seconds
        outcome.attempted += 1
        stdouts.append(result.stdout)
        if result.code != 0:
            outcome.fail(op, f"exit {result.code}: {result.stderr[-300:]}")

    outcome.ops_done()
    first = check_cells(outcome, sequence, stdouts, paths)
    substituted = sum(cell[1] for name in TABLE_OPS if name in first
                      for cell in first[name].values())
    end_to_end(outcome, "one repro batch over the 12-program suite",
               len(sequence) * len(paths), substituted)

    if traced:
        trace_run(outcome, sequence, stdouts, paths, env)
    return outcome


def check_cells(outcome: Outcome, sequence: List[str], stdouts: List[str],
                paths: List[str]) -> Dict[str, dict]:
    """Every op's cells must equal the first cycle's; the cells must
    rebuild Tables 2/3 with no violated paper relationship, and the
    optimize op must substitute what the default configuration does."""
    from repro.suite.paper_data import compare_with_measured
    from repro.suite.tables import Table2Row, Table3Row

    first: Dict[str, dict] = {}
    for op, (name, stdout) in enumerate(zip(sequence, stdouts)):
        if op in outcome.failed_ops:
            continue
        try:
            cells = parse_output(stdout, paths)
        except BenchError as err:
            outcome.fail(op, str(err))
            continue
        if first.setdefault(name, cells) != cells:
            outcome.fail(op, f"{name} cells differ between cycles")
    if set(first) != set(OPS):
        return first
    if any(first["optimize"][p][:2] != first["poly"][p][:2] for p in paths):
        for op, name in enumerate(sequence):
            if name == "optimize":
                outcome.fail(op, "--optimize changed the analysis")

    def column(name: str) -> List[int]:
        return [first[name][path][1] for path in paths]

    programs = [os.path.basename(path)[:-2] for path in paths]
    table2 = [Table2Row(*row) for row in zip(
        programs, column("poly"), column("pass"), column("intra"),
        column("literal"), column("poly-noret"), column("pass-noret"),
    )]
    table3 = [Table3Row(*row) for row in zip(
        programs, column("no-mod"), column("poly"), column("complete"),
        column("intra-only"),
    )]
    violations = compare_with_measured(table2, table3).violations
    for op, name in enumerate(sequence):
        if violations and name in TABLE_OPS:
            outcome.fail(op, f"Tables 2/3 violate the paper: {violations[0]}")
    outcome.notes.append(
        f"Tables 2/3 rebuilt: {len(violations)} violated paper relationships"
    )
    return first


def trace_run(outcome: Outcome, sequence: List[str], stdouts: List[str],
              paths: List[str], env) -> None:
    """Re-run each distinct op in-process, once through the driver entry
    point with every layer function traced (its summary lines must
    equal the op's CLI output) and once through ``run_batch`` for the
    pool's efficiency."""
    import multiprocessing

    from repro.engine.batch import run_batch
    from repro.ipcp.driver import analyze_source_resilient
    from repro.opt import PASS_NAMES, optimize_result

    run = TracedRun()
    sources = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            sources.append((path, handle.read()))
    efficiency = []
    for op, name in enumerate(sequence):
        if name in sequence[:op]:
            continue
        config = config_of(name)
        # The untraced twin first, right before the traced run.
        started = time.perf_counter()
        for path, text in sources:
            result, _ = analyze_source_resilient(text, config, filename=path)
            if name == "optimize":
                optimize_result(result)
        plain_ms = (time.perf_counter() - started) * 1000.0
        lines = []
        results = []
        with run.op(op, sources) as span:
            for path, text in sources:
                result, _ = analyze_source_resilient(
                    text, config, filename=path
                )
                results.append(result)
                with run.tracer.span("ipcp.report"):
                    result.constants.format_report()
                    line = (f"{path}: {result.constants.total_pairs()} "
                            f"constant(s), {result.substituted_constants} "
                            f"substituted")
                if name == "optimize":
                    with run.tracer.span("opt.pipeline"):
                        report = optimize_result(result)
                    run.opt_changes += report.total_changes
                    line += f", optimized ({report.total_changes} change(s))"
                lines.append(line)
        run.overhead_pairs.append(((span.end - span.start) / 1e6, plain_ms))
        for result in results:
            run.count_cells(result)
        for other, (other_name, stdout) in enumerate(zip(sequence, stdouts)):
            if other_name == name and stdout.splitlines()[:-1] != lines:
                outcome.fail(other, "in-process traced run differs from "
                             "the CLI")

        started = time.perf_counter()
        batch = run_batch(
            paths, config, jobs=NPROC, want_metrics=True,
            optimize=PASS_NAMES if name == "optimize" else None,
        )
        wall = time.perf_counter() - started
        for child in multiprocessing.active_children():
            child.join()
        busy = batch.merged_metrics().get_histogram("batch_file_seconds").sum
        efficiency.append(busy / (NPROC * wall))
    run.layer_metrics(outcome)
    outcome.set("batch.efficiency", median(efficiency), "ratio")
    outcome.set("cli.startup_ms", startup_probe(env), "ms")
    outcome.traced = run
