"""Complete propagation: interleave propagation with dead-code
elimination (Table 3, column 3).

"After each run, dead code elimination was performed. If any dead code
was found, the propagation was performed again from scratch — all of
the values in CONSTANTS sets were reset to ⊤" (§4.2). Removing branches
that interprocedural constants prove dead can delete conflicting
definitions, which lets the next propagation find more constants. The
study observed convergence after a single DCE round on its suite; we
loop until no dead code remains (with a safety bound).

Notes on fidelity:

- Constants are *not* folded into the IR between rounds: each re-run
  re-measures every substitutable reference from scratch, so counts are
  cumulative exactly as the paper reports them.
- The call graph is rebuilt after each DCE round (eliminating a dead
  block can delete a call site — precisely the effect that exposes new
  constants, since the dead edge no longer participates in the meet).
- MOD summaries are kept from the original program; after deletion
  they are a sound over-approximation.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dce import eliminate_dead_code
from repro.callgraph.callgraph import CallGraph, build_call_graph
from repro.config import AnalysisConfig
from repro.ir.module import Program
from repro.summary.modref import ModRefInfo

#: Legacy safety bound on propagate/DCE alternations, now the default of
#: ``AnalysisBudget.dce_rounds``; the paper needed 2 runs (one DCE
#: round) on every program it measured.
MAX_ROUNDS = 10


def run_complete_propagation(
    program: Program,
    callgraph: CallGraph,
    modref: Optional[ModRefInfo],
    config: AnalysisConfig,
    resilience=None,
):
    """Iterate analyze -> DCE until no dead code appears.

    Returns the :class:`~repro.ipcp.driver.AnalysisResult` of the final
    propagation, with ``dce_rounds`` set to the number of DCE rounds
    that changed the program. The program IR is mutated (dead code
    removed). The alternation is bounded by
    ``config.budget.dce_rounds``; hitting the bound while the program is
    still changing keeps the last (sound) propagation and records a
    demotion on ``resilience``.
    """
    # circular-by-layering
    from repro.ipcp.driver import PreparedProgram, analyze_prepared

    max_rounds = config.budget.dce_rounds
    rounds = 0
    exhausted = False
    while True:
        result = analyze_prepared(
            PreparedProgram(program, callgraph, modref), config, resilience
        )
        if rounds >= max_rounds:
            exhausted = rounds > 0 or max_rounds == 0
            break
        any_change = False
        for procedure in program:
            sccp = result.substitution.sccp_results.get(procedure.name)
            stats = eliminate_dead_code(
                procedure, sccp, remove_dead_definitions=False
            )
            if stats.folded_branches or stats.removed_blocks:
                any_change = True
        if not any_change:
            break
        rounds += 1
        callgraph = build_call_graph(program)
        # Propagation restarts from scratch on the next loop iteration:
        # analyze_prepared rebuilds every jump function and re-seeds
        # every VAL cell at T.
    if exhausted and resilience is not None:
        resilience.record(
            "dce", "<complete propagation loop>", "fixpoint",
            "last-round result",
            f"propagate/DCE alternation exceeded its budget of "
            f"{max_rounds} round(s)",
        )
    if config.verify_ir:
        from repro.ir.verify import verify_program

        verify_program(program, ssa=True, stage="dead-code elimination")
    result.dce_rounds = rounds
    result.callgraph = callgraph
    return result
