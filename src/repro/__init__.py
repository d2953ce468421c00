"""repro — Interprocedural constant propagation with jump functions.

A from-scratch implementation of the Callahan–Cooper–Kennedy–Torczon
interprocedural constant propagation framework ("Interprocedural
constant propagation", SIGPLAN '86) together with the jump-function
implementation study of Grove & Torczon (PLDI '93): a MiniFortran
frontend, a CFG/SSA compiler middle end, MOD summaries, four forward
jump function implementations, polynomial return jump functions, the
call-graph propagation solver, and the substitution-count evaluation
harness that regenerates the study's tables.

Quick start::

    from repro import analyze_source, AnalysisConfig, JumpFunctionKind

    result = analyze_source(fortran_text)
    print(result.constants.format_report())
    print(result.substituted_constants, "references substituted")

    cheap = analyze_source(
        fortran_text,
        AnalysisConfig(jump_function=JumpFunctionKind.LITERAL),
    )
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": (
        "AnalysisBudget", "AnalysisConfig", "BudgetExceeded",
        "JumpFunctionKind",
    ),
    "repro.diagnostics": ("Diagnostic", "DiagnosticEngine", "Severity"),
    "repro.frontend.parser": ("parse_file", "parse_source"),
    "repro.ipcp.driver": (
        "AnalysisResult", "analyze_file", "analyze_file_resilient",
        "analyze_program", "analyze_source", "analyze_source_resilient",
    ),
    "repro.ipcp.resilience": ("Demotion", "ResilienceReport"),
    "repro.ir.verify": (
        "VerificationError", "verify_procedure", "verify_program",
    ),
    "repro.lattice": ("BOTTOM", "TOP", "LatticeValue", "const", "meet_all"),
})

__version__ = "1.0.0"

__all__ = [
    "AnalysisBudget",
    "AnalysisConfig",
    "AnalysisResult",
    "BOTTOM",
    "BudgetExceeded",
    "Demotion",
    "Diagnostic",
    "DiagnosticEngine",
    "JumpFunctionKind",
    "LatticeValue",
    "ResilienceReport",
    "Severity",
    "TOP",
    "VerificationError",
    "analyze_file",
    "analyze_file_resilient",
    "analyze_program",
    "analyze_source",
    "analyze_source_resilient",
    "const",
    "meet_all",
    "parse_file",
    "parse_source",
    "verify_procedure",
    "verify_program",
    "__version__",
]
