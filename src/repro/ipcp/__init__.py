"""Interprocedural constant propagation — the paper's core contribution.

The pipeline (§4.1) has four stages, each a module here:

1. :mod:`repro.ipcp.return_functions` — bottom-up generation of
   polynomial return jump functions;
2. :mod:`repro.ipcp.jump_functions` — top-down generation of forward
   jump functions (literal / intraprocedural / pass-through /
   polynomial);
3. :mod:`repro.ipcp.solver` — iterative propagation of VAL sets around
   the call graph on the Figure 1 lattice;
4. :mod:`repro.ipcp.substitution` — recording: substitute discovered
   constants and count substituted source references.

:mod:`repro.ipcp.driver` wires the stages together behind one call;
:mod:`repro.ipcp.complete` adds the propagate/DCE iteration, and
:mod:`repro.ipcp.cloning` the procedure-cloning extension.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ipcp.binding_graph": (
        "BindingMultiGraph", "propagate_binding_graph",
    ),
    "repro.ipcp.cloning": ("CloningReport", "clone_for_constants"),
    "repro.ipcp.constants": ("ConstantsResult",),
    "repro.ipcp.driver": ("AnalysisResult", "analyze_program", "analyze_source"),
    "repro.ipcp.jump_functions": (
        "ForwardJumpFunction", "JumpFunctionTable",
        "build_forward_jump_functions",
    ),
    "repro.ipcp.return_functions": (
        "ReturnFunctionMap", "ReturnJumpFunction", "build_return_functions",
    ),
    "repro.ipcp.inlining": ("IntegrationReport", "integrate_and_propagate"),
    "repro.ipcp.solver": ("PropagationResult", "propagate"),
    "repro.ipcp.stats": ("AnalysisStatistics", "collect_statistics"),
    "repro.ipcp.substitution": ("SubstitutionReport", "measure_substitution"),
})

__all__ = [
    "AnalysisResult",
    "AnalysisStatistics",
    "BindingMultiGraph",
    "CloningReport",
    "IntegrationReport",
    "ConstantsResult",
    "ForwardJumpFunction",
    "JumpFunctionTable",
    "PropagationResult",
    "ReturnFunctionMap",
    "ReturnJumpFunction",
    "SubstitutionReport",
    "analyze_program",
    "analyze_source",
    "clone_for_constants",
    "collect_statistics",
    "integrate_and_propagate",
    "propagate_binding_graph",
    "build_forward_jump_functions",
    "build_return_functions",
    "measure_substitution",
    "propagate",
]
