"""Pipeline driver for the IPCP-consuming optimization backend.

The pipeline takes an :class:`~repro.ipcp.driver.AnalysisResult` (whose
program is in SSA form) and runs the requested passes:

1. SSA stage, in order ``fold`` -> ``callargs`` -> ``branches`` — each
   backed by one per-procedure SCCP solve seeded with the
   interprocedural CONSTANTS(p) entry lattice (so the passes see exactly
   the facts the paper's propagation proved);
2. SSA destruction (always — the pipeline's contract is an executable,
   phi-free program);
3. post-destruct stage: ``unswitch`` (loop cloning needs no phi surgery
   on the destructed IR).

``--passes`` selects a subset; scheduling order is fixed regardless of
how the subset is spelled, and is reported in canonical order
(:data:`PASS_NAMES`). With verification enabled the IR verifier runs
after every pass, extending the PR 1 verifier contract to repro.opt.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.analysis.sccp import SCCPCallModel, SCCPResult, run_sccp
from repro.analysis.ssa_out import destruct_program
from repro.config import AnalysisConfig
from repro.ipcp.driver import AnalysisResult, analyze_source
from repro.ipcp.return_functions import ReturnFunctionCallModel
from repro.ir.verify import verify_program
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.opt import passes as opt_passes
from repro.opt.report import OptReport

#: Canonical pass names, in the order reports list them.
PASS_NAMES: Tuple[str, ...] = ("fold", "branches", "unswitch", "callargs")

#: Execution schedule for the SSA stage: substitution first so DCE sees
#: every literal, call-argument materialization before DCE so freshly
#: dead actual computations are collected in the same run.
_SSA_STAGE: Tuple[str, ...] = ("fold", "callargs", "branches")

#: Function names on :mod:`repro.opt.passes`, looked up late so tests
#: can monkeypatch a deliberately broken pass.
_SSA_PASS_FUNCTIONS: Dict[str, str] = {
    "fold": "fold_constants",
    "callargs": "materialize_call_args",
    "branches": "fold_branches",
}


def parse_passes(spec: Optional[str]) -> Tuple[str, ...]:
    """Parse a ``--passes`` comma list into canonical order; raises
    ValueError naming any unknown pass."""
    if not spec:
        return PASS_NAMES
    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = sorted(set(names) - set(PASS_NAMES))
    if unknown:
        raise ValueError(
            f"unknown optimization pass(es): {', '.join(unknown)} "
            f"(available: {', '.join(PASS_NAMES)})"
        )
    if not names:
        return PASS_NAMES
    requested = set(names)
    return tuple(name for name in PASS_NAMES if name in requested)


def _call_model(result: AnalysisResult) -> SCCPCallModel:
    if result.config.use_return_functions and result.return_functions is not None:
        return ReturnFunctionCallModel(result.program, result.return_functions)
    return SCCPCallModel()


def optimize_result(
    result: AnalysisResult,
    passes: Iterable[str] = PASS_NAMES,
    verify: bool = False,
) -> OptReport:
    """Run the pipeline over ``result.program`` (mutating it in place)
    and return the report. On return the program is destructed —
    executable by the reference interpreter, no longer in SSA form.
    The whole pipeline is the ``opt`` stage; each pass is an ``opt.*``
    trace span inside it."""
    with trace.stage("opt"):
        program = result.program
        config = result.config
        selected = tuple(passes)
        verify_after = verify or config.verify_ir
        report = OptReport(passes=list(selected), verified=verify_after)

        ssa_passes = [name for name in _SSA_STAGE if name in selected]
        if ssa_passes:
            sccp_results: Dict[str, SCCPResult] = {}
            call_model = _call_model(result)
            with trace.span("opt.sccp"):
                for procedure in program:
                    entry = result.constants.entry_lattice(procedure)
                    sccp_results[procedure.name] = run_sccp(
                        procedure, entry, call_model,
                        config.budget.sccp_visits,
                    )
            for pass_name in ssa_passes:
                pass_function = getattr(
                    opt_passes, _SSA_PASS_FUNCTIONS[pass_name]
                )
                with trace.span(f"opt.{pass_name}"):
                    changes = 0
                    for procedure in program:
                        changes += pass_function(
                            procedure, sccp_results[procedure.name], report
                        )
                obs_metrics.inc(f"opt_{pass_name}_changes", changes)
                if verify_after:
                    verify_program(program, ssa=True, stage=f"opt:{pass_name}")

        with trace.span("opt.destruct"):
            report.edge_copies = destruct_program(program)
            if "branches" in selected:
                for procedure in program:
                    opt_passes.cleanup_pass(procedure, "branches", report)
        if verify_after:
            verify_program(program, ssa=False, stage="opt:destruct")

        if "unswitch" in selected:
            with trace.span("opt.unswitch"):
                changes = 0
                for procedure in program:
                    changes += opt_passes.unswitch_loops(procedure, report)
                    opt_passes.cleanup_pass(procedure, "unswitch", report)
            obs_metrics.inc("opt_unswitch_changes", changes)
            if verify_after:
                verify_program(program, ssa=False, stage="opt:unswitch")

        obs_metrics.inc("opt_pipeline_runs")
        obs_metrics.inc("opt_total_changes", report.total_changes)
        return report


def optimize_source(
    text: str,
    config: Optional[AnalysisConfig] = None,
    filename: str = "<memory>",
    passes: Iterable[str] = PASS_NAMES,
    verify: bool = False,
) -> Tuple[AnalysisResult, OptReport]:
    """Analyze ``text`` fresh (never through the shared memo caches —
    the pipeline mutates the program) and optimize it."""
    result = analyze_source(text, config or AnalysisConfig(), filename)
    report = optimize_result(result, passes, verify)
    return result, report
