"""Flow-insensitive interprocedural MOD side-effect analysis.

For every procedure ``p`` this computes ``MOD(p)``: the variables (in
``p``'s own scope: formals, locals, globals) that an invocation of ``p``
*may* modify, by iterating direct effects plus call-site binding (a
Cooper–Kennedy style fixpoint over the call graph; recursion converges
because the sets only grow). REF, the variables a procedure may
reference, is not computed: nothing in the analysis reads it.

The study found MOD information decisive: "incorporating MOD information
significantly increases the number of constants that can be detected"
(§4.2, Table 3). The :func:`annotate_call_effects` pass is where that
switch lives — it stamps every Call instruction with the set of caller
variables it may define, either filtered by MOD or, when ``modref`` is
None, under the worst-case assumption that every call clobbers every
global and every bindable actual.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.callgraph.callgraph import CallGraph
from repro.ir.instructions import Call, Def, Return, Use
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable


class ModRefInfo:
    """MOD sets for every procedure, keyed by procedure name."""

    def __init__(self):
        self.mod: Dict[str, Set[Variable]] = {}

    def may_modify(self, procedure_name: str, var: Variable) -> bool:
        return var in self.mod.get(procedure_name, ())

    def modified_globals(self, procedure_name: str) -> List[Variable]:
        # MOD sets hash by identity, so raw iteration order varies from
        # run to run. Everything downstream of this order is persisted
        # (phi placement via may_define, return-function targets, cache
        # keys over printed IR), so return a deterministically sorted
        # list instead of the set.
        return sorted(
            (v for v in self.mod.get(procedure_name, ()) if v.is_global),
            key=lambda v: (v.common_block or "", v.name),
        )

    def modified_formals(self, procedure: Procedure) -> List[Variable]:
        mod = self.mod.get(procedure.name, set())
        return [v for v in procedure.formals if v in mod]


def compute_modref(program: Program, callgraph: CallGraph) -> ModRefInfo:
    """Compute MOD to a fixpoint over the call graph."""
    info = ModRefInfo()
    for procedure in program:
        info.mod[procedure.name] = _direct_mod(procedure)

    changed = True
    while changed:
        changed = False
        # Visiting callers of recently-changed callees would be slightly
        # faster; a simple sweep is clear and the graphs are small.
        for procedure in callgraph.bottom_up_order():
            mod = info.mod[procedure.name]
            for site in callgraph.sites_from(procedure):
                callee_mod = info.mod[site.callee.name]
                for var in _bind_to_caller(site.call, site.callee, callee_mod):
                    if var not in mod:
                        mod.add(var)
                        changed = True
    return info


def _direct_mod(procedure: Procedure) -> Set[Variable]:
    """Variables directly assigned by the procedure body (ignoring call
    effects, which the fixpoint adds)."""
    mod: Set[Variable] = set()
    for instruction in procedure.cfg.instructions():
        if isinstance(instruction, Call):
            # A call's own direct effect is its result; callee effects
            # flow in through binding during the fixpoint.
            if instruction.result is not None:
                mod.add(instruction.result.var)
            continue
        for definition in instruction.defs():
            mod.add(definition.var)
        array = getattr(instruction, "array", None)
        if array is not None and not instruction.defs():
            # An ArrayStore (no scalar def) modifies its array.
            mod.add(array)
    return mod


def _bind_to_caller(call: Call, callee: Procedure, callee_vars: Set[Variable]):
    """Translate a set of callee-scope variables into caller scope at one
    call site: globals map to themselves, formals map through the actual
    arguments (when the actual is a modifiable variable), and callee
    locals vanish."""
    result: Set[Variable] = set()
    for var in callee_vars:
        if var.is_global:
            result.add(var)
    for formal, arg in zip(callee.formals, call.args):
        if formal in callee_vars:
            if arg.is_array:
                result.add(arg.array)
            else:
                bound = arg.bindable_var
                if bound is not None:
                    result.add(bound)
    return result


def annotate_call_effects(
    program: Program,
    callgraph: CallGraph,
    modref: Optional[ModRefInfo] = None,
    procedures: Optional[Iterable[Procedure]] = None,
) -> None:
    """Stamp every Call with its may-define set and entry uses (only
    those of ``procedures``, when given: a procedure's annotation reads
    its callees' formals and MOD sets, never their bodies).

    - ``may_define``: Defs for each scalar the call may write — with MOD
      information, the callee's modified globals plus bindable actuals
      whose formal is in MOD(callee); without it, *every* scalar global
      and every bindable actual (the paper's worst-case assumption);
    - ``entry_uses``: one Use per scalar global in the program, recording
      the global's value flowing into the callee (globals are passed
      implicitly at every call site).

    Every Return instruction additionally receives ``exit_uses`` — one
    Use per scalar formal and global — from which return jump functions
    read the values flowing back to callers.

    Must run before SSA construction; idempotent per Call (re-annotation
    replaces earlier slots, which is only safe pre-SSA).
    """
    scalar_globals = program.scalar_globals()
    for procedure in program if procedures is None else procedures:
        observable = [f for f in procedure.formals if f.is_scalar]
        observable.extend(scalar_globals)
        for instruction in procedure.cfg.instructions():
            if isinstance(instruction, Return):
                instruction.exit_uses = [Use(v) for v in observable]
        for call in procedure.call_sites():
            callee = program.procedure(call.callee)
            defined: Dict[Variable, Def] = {}
            if modref is None:
                for g in scalar_globals:
                    defined[g] = Def(g)
                for arg in call.args:
                    bound = arg.bindable_var
                    if bound is not None and bound.is_scalar:
                        defined.setdefault(bound, Def(bound))
            else:
                for g in modref.modified_globals(callee.name):
                    if g.is_scalar:
                        defined[g] = Def(g)
                callee_mod = modref.mod.get(callee.name, set())
                for formal, arg in zip(callee.formals, call.args):
                    if formal.is_scalar and formal in callee_mod:
                        bound = arg.bindable_var
                        if bound is not None and bound.is_scalar:
                            defined.setdefault(bound, Def(bound))
            call.may_define = list(defined.values())
            call.entry_uses = [Use(g) for g in scalar_globals]
