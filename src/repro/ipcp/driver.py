"""End-to-end analysis driver.

:func:`analyze_source` / :func:`analyze_program` run the full pipeline
for one :class:`~repro.config.AnalysisConfig`:

    parse -> lower -> call graph -> MOD/REF -> call-effect annotation
    -> SSA -> return jump functions -> forward jump functions
    -> interprocedural propagation -> substitution measurement

Complete propagation (``config.complete``) extends the tail with
substitute -> DCE -> re-propagate iterations
(:mod:`repro.ipcp.complete`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.analysis.sccp import SCCPCallModel
from repro.analysis.ssa import construct_ssa
from repro.callgraph.callgraph import CallGraph, build_call_graph
from repro.config import AnalysisConfig
from repro.diagnostics import E_IO, E_SEMANTIC, DiagnosticEngine
from repro.frontend.errors import FrontendError, SemanticError
from repro.frontend.parser import parse_source
from repro.frontend.source import SourceFile, SourceLocation
from repro.ipcp.constants import ConstantsResult, empty_constants
from repro.ipcp.jump_functions import (
    JumpFunctionTable,
    build_forward_jump_functions,
)
from repro.ipcp.resilience import ResilienceReport
from repro.ipcp.return_functions import (
    ReturnFunctionCallModel,
    ReturnFunctionMap,
    build_return_functions,
)
from repro.ipcp.solver import PropagationResult, propagate
from repro.ipcp.substitution import (
    SubstitutionReport,
    measure_substitution,
    render_transformed_source,
)
from repro.ir.lowering import lower_module
from repro.ir.module import Program
from repro.profiling import maybe_stage
from repro.summary.modref import ModRefInfo, annotate_call_effects, compute_modref


def _stage(engine, name: str):
    """Profile stage context: times the block on the engine's profile
    when an engine with profiling is attached, else a no-op."""
    return maybe_stage(engine.profile if engine is not None else None, name)


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    config: AnalysisConfig
    program: Program
    callgraph: CallGraph
    modref: Optional[ModRefInfo]
    return_functions: ReturnFunctionMap
    jump_table: Optional[JumpFunctionTable]
    propagation: Optional[PropagationResult]
    constants: ConstantsResult
    substitution: SubstitutionReport
    dce_rounds: int = 0
    #: Every component demoted during this run (empty = full precision).
    resilience: ResilienceReport = field(default_factory=ResilienceReport)
    #: Frontend diagnostics, when the run came through a resilient entry
    #: point (:func:`analyze_source_resilient`).
    diagnostics: Optional[DiagnosticEngine] = None

    @property
    def substituted_constants(self) -> int:
        """The headline number: source references substituted."""
        return self.substitution.total

    def transformed_source(self) -> str:
        """The original program with constants textually substituted."""
        if self.program.source is None:
            raise ValueError("program was not built from source text")
        return render_transformed_source(self.program.source, self.substitution)


def prepare_program(
    program: Program, config: AnalysisConfig
) -> "tuple[CallGraph, Optional[ModRefInfo]]":
    """Shared front half: call graph, MOD/REF, call-effect annotation,
    SSA conversion. Mutates ``program`` (which must be freshly lowered
    and not yet in SSA form)."""
    callgraph = build_call_graph(program)
    modref = compute_modref(program, callgraph) if config.use_mod else None
    annotate_call_effects(program, callgraph, modref)
    for procedure in program:
        construct_ssa(procedure)
    return callgraph, modref


def analyze_prepared(
    program: Program,
    callgraph: CallGraph,
    modref: Optional[ModRefInfo],
    config: AnalysisConfig,
    resilience: Optional[ResilienceReport] = None,
    engine=None,
) -> AnalysisResult:
    """Back half of the pipeline, on an SSA-form annotated program.

    Factored out so complete propagation can re-run it after dead-code
    elimination without reconstructing SSA. ``resilience`` collects
    demotions (a fresh report is created when None); construction faults
    and budget overruns degrade individual components instead of
    aborting (see :mod:`repro.ipcp.resilience`).

    With an ``engine`` (:class:`repro.engine.Engine`), the three
    per-procedure stages — return functions, forward functions,
    substitution — run through its cached equivalents; the results are
    byte-identical to the plain builders.
    """
    resilience = resilience if resilience is not None else ResilienceReport()
    budget = config.budget
    with _stage(engine, "return_functions"):
        if not config.use_return_functions:
            return_map = ReturnFunctionMap()
        elif engine is not None:
            return_map = engine.return_functions(
                program, callgraph, modref, config, resilience
            )
        else:
            return_map = build_return_functions(
                program, callgraph, modref,
                budget=budget, resilience=resilience,
                fault_isolation=config.fault_isolation,
            )

    jump_table: Optional[JumpFunctionTable] = None
    propagation: Optional[PropagationResult] = None
    if config.interprocedural:
        with _stage(engine, "forward_functions"):
            if engine is not None:
                jump_table = engine.forward_functions(
                    program, callgraph, config, return_map, resilience
                )
            else:
                jump_table = build_forward_jump_functions(
                    program, callgraph, config.jump_function, return_map,
                    gcp_oracle=config.gcp_oracle,
                    budget=budget, resilience=resilience,
                    fault_isolation=config.fault_isolation,
                )
        with _stage(engine, "propagate"):
            propagation = propagate(
                program, callgraph, jump_table,
                strategy=config.solver_strategy,
                max_visits=budget.solver_visits, resilience=resilience,
            )
        constants = propagation.constants
        if config.gsa_refinement:
            jump_table, propagation = _refine_gsa_style(
                program, callgraph, config, return_map, constants,
                jump_table, propagation, resilience,
            )
            constants = propagation.constants
    else:
        constants = empty_constants(program)

    with _stage(engine, "substitution"):
        if config.use_return_functions:
            call_model: SCCPCallModel = ReturnFunctionCallModel(
                program, return_map
            )
        else:
            call_model = SCCPCallModel()
        if engine is not None:
            substitution = engine.substitution(
                program, callgraph, constants, call_model, config, resilience
            )
        else:
            substitution = measure_substitution(
                program, constants, call_model,
                budget=budget, resilience=resilience,
                fault_isolation=config.fault_isolation,
            )

    return AnalysisResult(
        config=config,
        program=program,
        callgraph=callgraph,
        modref=modref,
        return_functions=return_map,
        jump_table=jump_table,
        propagation=propagation,
        constants=constants,
        substitution=substitution,
        resilience=resilience,
    )


#: Historic bound on GSA-style refinement rounds, now the default of
#: ``AnalysisBudget.gsa_rounds`` (the paper's suite converged after one
#: extra round of complete propagation; ours does too).
_GSA_MAX_ROUNDS = 4


def _refine_gsa_style(
    program, callgraph, config, return_map, constants,
    jump_table, propagation, resilience=None,
):
    """§4.2's remark realized: regenerate jump functions with a
    branch-sensitive oracle seeded by the previous round's CONSTANTS,
    dropping never-executed call sites, until the result stabilizes.
    Every VAL cell restarts at ⊤ each round ("reset to T"), so this is
    complete propagation without dead-code elimination.

    ``jump_table`` / ``propagation`` are the unrefined results, returned
    unchanged when the round budget is zero; hitting the round budget
    before convergence keeps the last round's (sound) result and records
    a demotion.
    """
    from repro.ipcp.jump_functions import build_refined_jump_functions

    budget = config.budget
    previous_pairs = constants.total_pairs()
    converged = budget.gsa_rounds <= 0
    for _round in range(budget.gsa_rounds):
        jump_table, excluded = build_refined_jump_functions(
            program, callgraph, config.jump_function, return_map, constants,
            budget=budget, resilience=resilience,
            fault_isolation=config.fault_isolation,
        )
        propagation = propagate(
            program, callgraph, jump_table, excluded_calls=excluded,
            strategy=config.solver_strategy,
            max_visits=budget.solver_visits, resilience=resilience,
        )
        constants = propagation.constants
        if constants.total_pairs() == previous_pairs:
            converged = True
            break
        previous_pairs = constants.total_pairs()
    if not converged and resilience is not None:
        resilience.record(
            "gsa_refinement", "<refinement loop>", "fixpoint",
            "last-round result",
            f"refinement exceeded its budget of {budget.gsa_rounds} round(s)",
        )
    return jump_table, propagation


def _maybe_verify(program: Program, config: AnalysisConfig, ssa: bool,
                  stage: str) -> None:
    if not config.verify_ir:
        return
    from repro.ir.verify import verify_program

    verify_program(program, ssa=ssa, stage=stage)


def analyze_program(
    program: Program,
    config: Optional[AnalysisConfig] = None,
    resilience: Optional[ResilienceReport] = None,
    engine=None,
) -> AnalysisResult:
    """Analyze a freshly lowered (non-SSA) program under ``config``.

    The program is mutated (annotated, converted to SSA, and — under
    complete propagation — transformed); re-lower from source to analyze
    the same program under another configuration.

    ``engine`` caches the per-procedure stages (see
    :func:`analyze_prepared`). Complete propagation re-runs the pipeline
    on programs it mutates between rounds, which would defeat every
    content-keyed cache — it always runs without the engine.
    """
    config = config or AnalysisConfig()
    resilience = resilience if resilience is not None else ResilienceReport()
    if engine is not None and not config.complete:
        engine.start(program, config)
    _maybe_verify(program, config, ssa=False, stage="lowering")
    with _stage(engine, "prepare"):
        callgraph, modref = prepare_program(program, config)
    _maybe_verify(program, config, ssa=True, stage="SSA construction")
    if config.complete:
        # Imported here: complete.py uses analyze_prepared from this module.
        from repro.ipcp.complete import run_complete_propagation

        return run_complete_propagation(
            program, callgraph, modref, config, resilience
        )
    return analyze_prepared(
        program, callgraph, modref, config, resilience, engine=engine
    )


def analyze_source(
    text: str,
    config: Optional[AnalysisConfig] = None,
    filename: str = "<string>",
    engine=None,
) -> AnalysisResult:
    """Parse, lower, and analyze MiniFortran source text.

    Strict frontend contract: raises :class:`FrontendError` on the
    first lex/parse/semantic problem. Use
    :func:`analyze_source_resilient` for multi-error recovery.
    """
    with _stage(engine, "parse"):
        module = parse_source(text, filename)
    with _stage(engine, "lower"):
        program = lower_module(module, SourceFile(filename, text))
    return analyze_program(program, config, engine=engine)


def analyze_source_resilient(
    text: str,
    config: Optional[AnalysisConfig] = None,
    filename: str = "<string>",
    diagnostics: Optional[DiagnosticEngine] = None,
    engine=None,
) -> Tuple[Optional[AnalysisResult], DiagnosticEngine]:
    """Analyze with frontend error recovery; never raises FrontendError.

    Lexer and parser recover and record every diagnostic on the engine;
    units whose bodies could not be parsed are analyzed as conservative
    stubs, so ``CONSTANTS(p)`` is still produced for every healthy
    procedure. Returns ``(result, diagnostics)`` where ``result`` is
    None only when nothing could be analyzed at all (no parseable units,
    or the recovered module fails semantic lowering).
    """
    diag = diagnostics if diagnostics is not None else DiagnosticEngine()
    with _stage(engine, "parse"):
        module = parse_source(text, filename, diag)
    if not module.units:
        return None, diag
    try:
        with _stage(engine, "lower"):
            program = lower_module(module, SourceFile(filename, text))
    except SemanticError as err:
        diag.error(E_SEMANTIC, err.message, err.location)
        return None, diag
    result = analyze_program(program, config, engine=engine)
    result.diagnostics = diag
    return result, diag


def _located_io_error(path: str, err: Exception) -> FrontendError:
    location = SourceLocation(path, 0, 0)
    if isinstance(err, UnicodeDecodeError):
        message = f"cannot decode {path!r} as UTF-8 text: {err.reason}"
    else:
        message = f"cannot read {path!r}: {err.strerror or err}"
    return FrontendError(message, location)


def analyze_file(
    path: str, config: Optional[AnalysisConfig] = None, engine=None
) -> AnalysisResult:
    """Analyze the MiniFortran program stored at ``path``.

    I/O problems (missing file, permissions, non-UTF-8 bytes) surface
    as a located :class:`FrontendError` rather than a raw OSError.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise _located_io_error(path, err) from err
    return analyze_source(text, config, filename=path, engine=engine)


def analyze_file_resilient(
    path: str,
    config: Optional[AnalysisConfig] = None,
    diagnostics: Optional[DiagnosticEngine] = None,
    engine=None,
) -> Tuple[Optional[AnalysisResult], DiagnosticEngine]:
    """Resilient variant of :func:`analyze_file`: I/O and frontend
    problems land on the diagnostic engine instead of raising."""
    diag = diagnostics if diagnostics is not None else DiagnosticEngine()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        located = _located_io_error(path, err)
        diag.error(E_IO, located.message, located.location)
        return None, diag
    return analyze_source_resilient(
        text, config, filename=path, diagnostics=diag, engine=engine
    )
