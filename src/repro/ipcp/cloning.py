"""Goal-directed procedure cloning on interprocedural constants.

The paper's "Other Work" section highlights Metzger & Stroud's result
that cloning procedures by incoming constant values "can substantially
increase the number of interprocedural constants available" (§5; also
Cooper, Hall & Kennedy's procedure cloning). This module implements that
extension on top of the propagation framework:

1. run a base analysis;
2. for every procedure whose incoming call edges disagree — the meet
   washes a parameter to ⊥ even though individual edges carry constants
   — partition the edges by their vector of constant jump-function
   values;
3. materialize one clone per additional partition (bounded), retarget
   the call sites, and re-run the propagation.

Cloning happens on the SSA-form program, so no re-lowering is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.callgraph.callgraph import CallGraph, CallSite, build_call_graph
from repro.config import AnalysisConfig
from repro.ipcp.driver import (
    AnalysisResult,
    PreparedProgram,
    analyze_prepared,
    prepare_program,
)
from repro.ipcp.solver import entry_domain
from repro.ir.clone import clone_procedure
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable
from repro.lattice import BOTTOM, LatticeValue
from repro.summary.modref import ModRefInfo

#: A partition signature: the constants each edge delivers, as a sorted
#: tuple of (parameter name, value) pairs.
Signature = Tuple[Tuple[str, int], ...]


@dataclass
class CloningReport:
    """What cloning changed."""

    base: AnalysisResult
    final: AnalysisResult
    clones: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def clones_created(self) -> int:
        return sum(len(names) for names in self.clones.values())

    @property
    def constants_gained(self) -> int:
        return self.final.substituted_constants - self.base.substituted_constants


def _edge_signature(
    site: CallSite,
    domain: List[Variable],
    result: AnalysisResult,
) -> Signature:
    """The vector of constants this specific edge would deliver if it
    were the only call (evaluating its jump functions against the
    caller's final VAL set)."""
    caller_val = result.constants.val_set(site.caller.name)

    def caller_value(var: Variable) -> LatticeValue:
        return caller_val.get(var, BOTTOM)

    pairs: List[Tuple[str, int]] = []
    for var in domain:
        function = result.jump_table.lookup(site.call, var)
        if function is None:
            continue
        value = function.evaluate(caller_value)
        if value.is_constant:
            pairs.append((var.name, value.value))
    return tuple(sorted(pairs))


def _cloning_plan(
    result: AnalysisResult,
    max_clones_per_procedure: int,
) -> Dict[Procedure, List[List[CallSite]]]:
    """Group each procedure's incoming edges by signature; procedures
    with >= 2 distinct signatures are cloning candidates. Partitions
    beyond the cap are merged into the first (original) group."""
    plan: Dict[Procedure, List[List[CallSite]]] = {}
    program = result.program
    for procedure in program:
        if procedure.is_main:
            continue
        sites = result.callgraph.sites_into(procedure)
        if len(sites) < 2:
            continue
        domain = entry_domain(procedure, program)
        groups: Dict[Signature, List[CallSite]] = {}
        for site in sites:
            groups.setdefault(_edge_signature(site, domain, result), []).append(site)
        if len(groups) < 2:
            continue
        # Largest groups get dedicated bodies; overflow keeps the original.
        ordered = sorted(groups.values(), key=len, reverse=True)
        kept = ordered[: max_clones_per_procedure + 1]
        overflow = [site for group in ordered[max_clones_per_procedure + 1 :] for site in group]
        kept[0] = kept[0] + overflow
        plan[procedure] = kept
    return plan


def clone_for_constants(
    program: Program,
    config: Optional[AnalysisConfig] = None,
    max_clones_per_procedure: int = 4,
) -> CloningReport:
    """Analyze, clone by incoming constant signatures, and re-analyze.

    ``program`` must be freshly lowered (not yet analyzed); it is
    mutated. Only a single cloning round is performed — enough to expose
    the effect the paper cites, without risking exponential growth.
    """
    config = config or AnalysisConfig()
    callgraph, modref = prepare_program(program, config)
    base = analyze_prepared(
        PreparedProgram(program, callgraph, modref), config
    )

    plan = _cloning_plan(base, max_clones_per_procedure)
    report = CloningReport(base=base, final=base)
    if not plan:
        return report

    for procedure, groups in plan.items():
        # Group 0 keeps the original body; each further group gets a clone.
        for index, group in enumerate(groups[1:], start=1):
            clone_name = f"{procedure.name}%clone{index}"
            clone, var_map = clone_procedure(procedure, clone_name)
            program.procedures[clone_name] = clone
            report.clones.setdefault(procedure.name, []).append(clone_name)
            if modref is not None:
                _extend_modref(modref, procedure, clone, var_map)
            for site in group:
                site.call.callee = clone_name

    new_callgraph = build_call_graph(program)
    if config.verify_ir:
        from repro.ir.verify import verify_program

        verify_program(program, ssa=True, stage="procedure cloning")
    report.final = analyze_prepared(
        PreparedProgram(program, new_callgraph, modref), config
    )
    return report


def _extend_modref(
    modref: ModRefInfo,
    original: Procedure,
    clone: Procedure,
    var_map: Dict[Variable, Variable],
) -> None:
    """Register the clone's MOD/REF sets (the original's, with local
    variables translated through the cloning map)."""
    modref.mod[clone.name] = {
        var_map.get(var, var) for var in modref.mod.get(original.name, set())
    }
    modref.ref[clone.name] = {
        var_map.get(var, var) for var in modref.ref.get(original.name, set())
    }
