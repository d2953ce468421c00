"""Intraprocedural analyses: dominance, SSA form, value numbering,
sparse conditional constant propagation, and dead-code elimination.

These are the substrates the jump-function implementations are built on
(the study constructs all jump functions "on top of an existing framework
for global value numbering" over SSA, §3).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.dominance": ("DominatorTree", "compute_dominator_tree"),
    "repro.analysis.dce": ("eliminate_dead_code",),
    "repro.analysis.sccp": ("LatticeCell", "SCCPResult", "run_sccp"),
    "repro.analysis.loops": ("analyze_loops", "find_natural_loops"),
    "repro.analysis.ssa": ("construct_ssa", "verify_ssa"),
    "repro.analysis.ssa_out": ("destruct_program", "destruct_ssa"),
    "repro.analysis.value_numbering": ("ValueNumbering", "number_values"),
})

__all__ = [
    "DominatorTree",
    "LatticeCell",
    "SCCPResult",
    "ValueNumbering",
    "compute_dominator_tree",
    "analyze_loops",
    "construct_ssa",
    "destruct_program",
    "destruct_ssa",
    "eliminate_dead_code",
    "find_natural_loops",
    "number_values",
    "run_sccp",
    "verify_ssa",
]
