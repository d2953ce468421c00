"""The differential harness: execution as the oracle for the analysis.

Each trial generates a seeded program with concrete driver inputs,
executes it through :mod:`repro.ir.interp` while recording per-procedure
entry snapshots, and cross-checks three properties against
``analyze_source``-equivalent runs:

1. **Soundness** — every pair the analyzer puts in ``CONSTANTS(p)``
   matches every observed entry value of ``p``, under every checked
   configuration;
2. **Semantic preservation** — interpreting the post-substitution
   source and the post-cloning program yields the original output
   trace;
3. **Resilience monotonicity** — under injected
   :class:`~repro.config.AnalysisBudget` exhaustion, the degraded
   ``CONSTANTS`` sets never *invent* pairs: every degraded pair is
   either reported identically by the unbudgeted run or sits on a
   procedure the full run proved never-invoked (⊤).

A failing trial is minimized (:mod:`repro.oracle.minimize`) and can be
persisted to a corpus directory (:mod:`repro.oracle.corpus`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import AnalysisBudget, AnalysisConfig, JumpFunctionKind
from repro.suite.generator import GeneratedCase, GeneratorConfig, generate_case

#: Property tags — stable identifiers used by the corpus and the tests.
SOUNDNESS = "soundness"
PRESERVATION = "preservation"
MONOTONICITY = "monotonicity"

PROPERTIES = (SOUNDNESS, PRESERVATION, MONOTONICITY)

#: Default generator shape for oracle trials: small enough that one
#: trial (one execution + several analyses) stays in the tens of
#: milliseconds, rich enough to cover branches, loops, call chains,
#: reads, and globals.
DEFAULT_ORACLE_CONFIG = GeneratorConfig(procedures=4, max_statements_per_procedure=8)

#: Configurations whose CONSTANTS claims are checked against execution.
#: Kept deliberately small — breadth across seeds beats breadth across
#: configs per seed; the property-based suite covers the full matrix.
SOUNDNESS_CONFIGS: Tuple[AnalysisConfig, ...] = (
    AnalysisConfig(),
    AnalysisConfig(jump_function=JumpFunctionKind.PASS_THROUGH),
    AnalysisConfig.complete_propagation(),
)

#: Budget injected for the monotonicity property.
STARVED_BUDGET = AnalysisBudget(
    solver_visits=8,
    sccp_visits=128,
    polynomial_terms=1,
    polynomial_degree=1,
    gsa_rounds=1,
    dce_rounds=1,
)

#: Execution fuel for the original program; transformed/cloned runs get
#: a multiple (the transformed program executes the same trace, but the
#: margin keeps a legitimate rewrite from tripping the limit first).
TRIAL_FUEL = 2_000_000


@dataclass(frozen=True)
class Discrepancy:
    """One violated property on one program."""

    property: str
    config: str
    detail: str

    def render(self) -> str:
        return f"[{self.property}] ({self.config}) {self.detail}"


@dataclass
class TrialResult:
    """Outcome of one seeded oracle trial."""

    seed: int
    source: str
    inputs: Tuple[int, ...]
    discrepancies: List[Discrepancy] = field(default_factory=list)
    #: True when the generated program could not serve as an oracle run
    #: (e.g. its finite-but-astronomical execution exhausted the fuel).
    skipped: bool = False
    skip_reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass
class OracleReport:
    """Aggregate of one ``run_oracle`` campaign."""

    trials: int = 0
    skipped: int = 0
    failures: List[TrialResult] = field(default_factory=list)
    #: Minimized source per failing seed (filled when minimization ran).
    minimized: Dict[int, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"{self.trials} trial(s): "
            f"{self.trials - self.skipped - len(self.failures)} passed, "
            f"{self.skipped} skipped, {len(self.failures)} failed"
        ]
        shown_per_trial = 8
        for failure in self.failures:
            lines.append(f"  seed {failure.seed}:")
            lines.extend(
                f"    {d.render()}"
                for d in failure.discrepancies[:shown_per_trial]
            )
            hidden = len(failure.discrepancies) - shown_per_trial
            if hidden > 0:
                lines.append(f"    ... and {hidden} more")
        return "\n".join(lines)


# -- building blocks ---------------------------------------------------------


def _fresh_program(source: str):
    """A fresh mutable lowering of ``source``. The parse is memoized
    (:mod:`repro.engine.memo`): one trial lowers the same text several
    times — execution, each analysis config, cloning — but parses it
    once."""
    from repro.engine.memo import fresh_program

    return fresh_program(source, "gen.f")


def _execute(source: str, inputs: Sequence[int], fuel: int):
    """Reference-interpreter execution, memoized per (source digest,
    input vector): a campaign re-executes the same program whenever
    checks overlap (preservation runs the transformed source the next
    trial may regenerate verbatim) and on every minimizer probe."""
    from repro.engine.memo import memoized_run

    return memoized_run(source, inputs, fuel, "gen.f")


def _analyze(source: str, config: AnalysisConfig):
    """Analyze ``source`` under ``config``, deduplicated per (source,
    config) pair: the soundness, preservation, and monotonicity checks
    all need the default-config result and now share one run. Callers
    treat the shared :class:`AnalysisResult` as read-only."""
    from repro.engine.memo import memoized_analysis

    return memoized_analysis(source, config, "gen.f")


def _constant_pairs(result) -> Dict[Tuple[str, str], int]:
    pairs: Dict[Tuple[str, str], int] = {}
    for procedure in result.program:
        for var, value in result.constants.constants_of(procedure.name).items():
            pairs[(procedure.name, var.name)] = value
    return pairs


# -- the three properties ----------------------------------------------------


def _check_soundness(
    source: str, trace, configs: Sequence[AnalysisConfig]
) -> List[Discrepancy]:
    problems: List[Discrepancy] = []
    for config in configs:
        result = _analyze(source, config)
        for procedure in result.program:
            claimed = result.constants.constants_of(procedure.name)
            if not claimed:
                continue
            for violation in trace.constant_violations(procedure.name, claimed):
                problems.append(
                    Discrepancy(SOUNDNESS, config.describe(), violation)
                )
    return problems


def _check_preservation(
    source: str, trace, inputs: Sequence[int], fuel: int
) -> List[Discrepancy]:
    from repro.analysis.ssa_out import destruct_program
    from repro.ipcp.cloning import clone_for_constants
    from repro.ir.interp import run_program

    problems: List[Discrepancy] = []

    # (a) textual constant substitution must not change the output trace.
    result = _analyze(source, AnalysisConfig())
    transformed = result.transformed_source()
    after = _execute(transformed, inputs, fuel * 4)
    if after.output != trace.output:
        problems.append(
            Discrepancy(
                PRESERVATION,
                "substitution",
                _trace_diff(trace.output, after.output),
            )
        )

    # (b) goal-directed cloning (IR-level transformation) must not either.
    program = _fresh_program(source)
    clone_for_constants(program)
    destruct_program(program)
    cloned = run_program(program, inputs=inputs, fuel=fuel * 4)
    if cloned.output != trace.output:
        problems.append(
            Discrepancy(
                PRESERVATION,
                "cloning",
                _trace_diff(trace.output, cloned.output),
            )
        )
    return problems


def _trace_diff(expected: List[str], got: List[str]) -> str:
    limit = 5
    for index, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return (
                f"output line {index} diverged: expected {a!r}, got {b!r} "
                f"(expected {len(expected)} line(s), got {len(got)})"
            )
    return (
        f"output length diverged: expected {len(expected)} line(s) "
        f"{expected[:limit]!r}, got {len(got)} line(s) {got[:limit]!r}"
    )


def _check_monotonicity(source: str) -> List[Discrepancy]:
    full = _analyze(source, AnalysisConfig())
    starved = _analyze(source, AnalysisConfig(budget=STARVED_BUDGET))
    full_pairs = _constant_pairs(full)
    problems: List[Discrepancy] = []
    for procedure in starved.program:
        for var, value in starved.constants.constants_of(procedure.name).items():
            key = (procedure.name, var.name)
            if key in full_pairs:
                if full_pairs[key] != value:
                    problems.append(
                        Discrepancy(
                            MONOTONICITY,
                            "starved-budget",
                            f"{procedure.name}.{var.name}: degraded run claims "
                            f"{value}, full run claims {full_pairs[key]}",
                        )
                    )
                continue
            # Absent from the full run's CONSTANTS: acceptable only when
            # the full run left the cell at ⊤ (procedure never invoked).
            if not full.constants.val_of(procedure.name, var).is_top:
                problems.append(
                    Discrepancy(
                        MONOTONICITY,
                        "starved-budget",
                        f"{procedure.name}.{var.name}: degraded run invented "
                        f"constant {value} the full run proved non-constant",
                    )
                )
    return problems


# -- trial drivers -----------------------------------------------------------


def check_source(
    source: str,
    inputs: Sequence[int],
    properties: Sequence[str] = PROPERTIES,
    fuel: int = TRIAL_FUEL,
) -> List[Discrepancy]:
    """Run the selected oracle properties on one program.

    Raises :class:`~repro.ir.interp.InterpreterError` when the program
    itself cannot be executed within ``fuel`` (callers treat that as a
    skip, not a failure).
    """
    trace = _execute(source, inputs, fuel)
    problems: List[Discrepancy] = []
    if SOUNDNESS in properties:
        problems.extend(_check_soundness(source, trace, SOUNDNESS_CONFIGS))
    if PRESERVATION in properties:
        problems.extend(_check_preservation(source, trace, inputs, fuel))
    if MONOTONICITY in properties:
        problems.extend(_check_monotonicity(source))
    return problems


def reproduces(
    source: str,
    inputs: Sequence[int],
    property_name: str,
    fuel: int = TRIAL_FUEL,
) -> bool:
    """Predicate for the minimizer: does ``source`` still violate
    ``property_name``? Any pipeline exception (unparseable candidate,
    fuel exhaustion) counts as "does not reproduce"."""
    try:
        return bool(check_source(source, inputs, (property_name,), fuel))
    except Exception:  # noqa: BLE001 — shrink candidates may be arbitrarily broken
        return False


def run_trial(
    seed: int,
    generator_config: Optional[GeneratorConfig] = None,
    properties: Sequence[str] = PROPERTIES,
    fuel: int = TRIAL_FUEL,
) -> TrialResult:
    """Generate, execute, and cross-check one seeded case."""
    from repro.ir.interp import InterpreterError

    case: GeneratedCase = generate_case(seed, generator_config or DEFAULT_ORACLE_CONFIG)
    result = TrialResult(seed=seed, source=case.source, inputs=case.inputs)
    try:
        result.discrepancies = check_source(
            case.source, case.inputs, properties, fuel
        )
    except InterpreterError as err:
        result.skipped = True
        result.skip_reason = str(err)
    return result


def run_oracle(
    trials: int,
    seed: int = 0,
    generator_config: Optional[GeneratorConfig] = None,
    properties: Sequence[str] = PROPERTIES,
    corpus_dir: Optional[str] = None,
    minimize: bool = True,
    fuel: int = TRIAL_FUEL,
    progress: Optional[Callable[[TrialResult], None]] = None,
) -> OracleReport:
    """Run ``trials`` seeded trials (seeds ``seed .. seed+trials-1``).

    Failing programs are minimized (unless ``minimize`` is False) and —
    when ``corpus_dir`` is given — written there together with their
    metadata. Deterministic for a fixed (trials, seed, config) triple.

    Trials and minimizations are ``trial``/``minimize`` stages
    (:func:`repro.obs.trace.stage`; ``oracle --profile`` times them).
    """
    from repro.obs.trace import stage
    from repro.oracle.corpus import CorpusEntry, write_failure
    from repro.oracle.minimize import minimize_source

    report = OracleReport()
    for index in range(trials):
        with stage("trial"):
            trial = run_trial(seed + index, generator_config, properties, fuel)
        report.trials += 1
        if trial.skipped:
            report.skipped += 1
        elif not trial.ok:
            if minimize:
                first = trial.discrepancies[0]
                with stage("minimize"):
                    report.minimized[trial.seed] = minimize_source(
                        trial.source,
                        lambda text: reproduces(
                            text, trial.inputs, first.property, fuel
                        ),
                    )
            if corpus_dir is not None:
                write_failure(
                    corpus_dir,
                    CorpusEntry(
                        seed=trial.seed,
                        property=trial.discrepancies[0].property,
                        source=report.minimized.get(trial.seed, trial.source),
                        inputs=tuple(trial.inputs),
                        detail=trial.discrepancies[0].detail,
                    ),
                )
            report.failures.append(trial)
        if progress is not None:
            progress(trial)
    return report
