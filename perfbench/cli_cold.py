"""cli-cold: one fresh ``repro analyze`` / ``repro link`` process per op.

Closed loop, one op at a time, default configuration, no cache: every
stage runs cold, interpreter start and imports included — what a build
step pays on each invocation. The engine cache and the daemon do no
work here.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

from common import (
    BenchError,
    Outcome,
    TracedRun,
    child_env,
    end_to_end,
    parallel_map,
    render_analysis,
    run_repro,
    startup_probe,
    stratified,
)

NAME = "cli-cold"
#: Ops per requested second, rounded to whole rounds (the op count is
#: fixed, never time-boxed).
OPS_PER_SECOND = 2.4
#: Distinct projects; ops visit each once per seeded round, so every
#: seed's ops cover the size range the same way. substituted_refs sums
#: over them, so more projects make it steadier across seeds: its spread
#: between sets of ten seeds reaches about 0.05 with 36, 0.10 with 12.
PROJECTS = 36
PROCEDURES = (100, 500)
LAYER_WIDTH = 32
#: Warm-up invocations; setup_s is their median.
WARMUPS = 5
#: Inputs and fuel of the interpreter run that checks CONSTANTS.
INPUTS = 64
FUEL = 5_000_000


class Project:
    def __init__(self, index: int, procedures: int, parts: int, seed: int):
        self.index = index
        self.procedures = procedures
        self.parts = parts
        self.seed = seed
        self.source = ""
        self.paths: List[str] = []

    def write(self, work: str) -> None:
        from repro.oracle.partition import split_program
        from repro.suite.generator import ScaleConfig, generate_scaled_program

        self.source = generate_scaled_program(
            self.seed,
            ScaleConfig(procedures=self.procedures, layer_width=LAYER_WIDTH),
        )
        files = (
            split_program(self.source, self.parts, self.seed)
            if self.parts > 1 else [("main.f", self.source)]
        )
        directory = os.path.join(work, f"project{self.index}")
        os.makedirs(directory)
        for name, text in files:
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.paths.append(path)

    def args(self) -> List[str]:
        if self.parts > 1:
            return ["link", *self.paths]
        return ["analyze", self.paths[0]]

    def named(self) -> List[Tuple[str, str]]:
        named = []
        for path in self.paths:
            with open(path, "r", encoding="utf-8") as handle:
                named.append((path, handle.read()))
        return named

    def analyze(self, named: List[Tuple[str, str]], config):
        """In-process analysis of the ``named`` files through the driver
        entry point the CLI calls for this project."""
        from repro.ipcp.driver import analyze_source_resilient
        from repro.linkage import analyze_linked_sources

        if self.parts > 1:
            result = analyze_linked_sources(named, config)[0]
        else:
            (filename, text), = named
            result = analyze_source_resilient(
                text, config, filename=filename
            )[0]
        if result is None:
            raise BenchError(f"project {self.index} did not analyze")
        return result


def plan(seed: int, rounds: int
         ) -> Tuple[List[Project], List[int], Project]:
    """Projects (sizes stratified over PROCEDURES, 1-6 files each), the
    op sequence over them (``rounds`` seeded rounds), and the warm-up
    project."""
    rng = random.Random(seed)
    sizes = stratified(rng, PROJECTS, PROCEDURES[0], PROCEDURES[1] + 1)
    parts = [1 + index % 6 for index in range(PROJECTS)]
    rng.shuffle(parts)
    projects = [
        Project(index, int(sizes[index]), parts[index], rng.randrange(2**31))
        for index in range(PROJECTS)
    ]
    sequence: List[int] = []
    for _ in range(rounds):
        round_ = list(range(PROJECTS))
        rng.shuffle(round_)
        sequence.extend(round_)
    warmup = Project(PROJECTS, sum(PROCEDURES) // 2, 1, rng.randrange(2**31))
    return projects, sequence, warmup


def check_project(job: Tuple[Project, int]) -> Tuple[str, List[str]]:
    """Expected stdout (in-process analysis of the unsplit program) and
    the CONSTANTS claims a seeded interpreter run contradicts, for a
    ``(project, seed)`` job."""
    project, seed = job
    from repro.engine.memo import fresh_program
    from repro.ipcp.driver import analyze_source
    from repro.ir.interp import Interpreter, InterpreterError

    result = analyze_source(project.source, filename="unsplit.f")
    expected = render_analysis(
        result, project.parts if project.parts > 1 else None
    )
    rng = random.Random(seed ^ project.seed)
    interpreter = Interpreter(
        fresh_program(project.source, "unsplit.f"),
        inputs=[rng.randint(-20, 20) for _ in range(INPUTS)], fuel=FUEL,
    )
    try:
        trace = interpreter.run()
    except InterpreterError:
        trace = interpreter.trace  # observations up to the fuel limit
    violations: List[str] = []
    for procedure in result.program:
        claimed = result.constants.constants_of(procedure.name)
        if claimed:
            violations.extend(
                trace.constant_violations(procedure.name, claimed)
            )
    return expected, violations


def substituted_of(stdout: str) -> int:
    for line in stdout.splitlines():
        if line.startswith("substituted constant references: "):
            return int(line.rsplit(" ", 1)[1])
    raise BenchError("no substitution count in output")


def run(seed: int, seconds: int, traced: bool, work: str) -> Outcome:
    rounds = max(1, round(seconds * OPS_PER_SECOND / PROJECTS))
    projects, sequence, warmup = plan(seed, rounds)
    ops = len(sequence)
    for project in projects + [warmup]:
        project.write(work)
    env = child_env(os.path.join(work, "tmp"))
    outcome = Outcome()

    for _ in range(WARMUPS):
        outcome.calibrate()
        result = run_repro(warmup.args(), env)
        if result.code != 0:
            raise BenchError(f"warm-up failed: {result.stderr[-500:]}")
        outcome.setup_s.append(result.seconds)

    stdouts: Dict[int, str] = {}
    for op, index in enumerate(sequence):
        outcome.calibrate()
        result = run_repro(projects[index].args(), env)
        outcome.op_ms.append(result.seconds * 1000.0)
        outcome.timed_s += result.seconds
        outcome.attempted += 1
        stdouts[op] = result.stdout
        if result.code != 0:
            outcome.fail(op, f"exit {result.code}: {result.stderr[-300:]}")

    outcome.ops_done()
    # Output checks, outside every timed region.
    substituted = 0
    checks = parallel_map(check_project, [(p, seed) for p in projects])
    for index, (expected, violations) in enumerate(checks):
        substituted += substituted_of(expected)
        for op, visited in enumerate(sequence):
            if visited != index:
                continue
            if violations:
                outcome.fail(op, f"unsound CONSTANTS: {violations[0]}")
            elif stdouts[op] != expected:
                outcome.fail(op, "stdout differs from the unsplit analysis")
    end_to_end(outcome, "one repro analyze/link process", ops, substituted)

    if traced:
        trace_run(outcome, projects, sequence, stdouts, env)
    return outcome


def trace_run(outcome: Outcome, projects: List[Project],
              sequence: List[int], stdouts: Dict[int, str], env) -> None:
    """Re-run every op in-process through the driver entry point the CLI
    calls, with every layer function traced; each result must render
    exactly the op's CLI stdout."""
    from repro.config import AnalysisConfig

    run = TracedRun()
    config = AnalysisConfig()
    visited = set()
    for op, index in enumerate(sequence):
        project = projects[index]
        named = project.named()
        if index not in visited:
            # The untraced twin, right before the first traced call.
            started = time.perf_counter()
            project.analyze(named, config)
            plain_ms = (time.perf_counter() - started) * 1000.0
        with run.op(op, named) as span:
            result = project.analyze(named, config)
            with run.tracer.span("ipcp.report"):
                stdout = render_analysis(
                    result, project.parts if project.parts > 1 else None
                )
        run.count_cells(result)
        if index not in visited:
            visited.add(index)
            run.overhead_pairs.append(
                ((span.end - span.start) / 1e6, plain_ms)
            )
        if stdout != stdouts[op]:
            outcome.fail(op, "in-process traced run differs from the CLI")
    run.layer_metrics(outcome)
    outcome.set("cli.startup_ms", startup_probe(env), "ms")
    outcome.traced = run

