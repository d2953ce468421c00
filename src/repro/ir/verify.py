"""Structural IR/SSA verifier.

Every pass that mutates the IR — lowering, call-effect annotation, SSA
construction, dead-code elimination, cloning — relies on invariants the
type system cannot express: CFG edges must point at blocks that are in
the graph, phi nodes must have exactly one incoming operand per
predecessor, every SSA use must be dominated by its definition, and
every named variable must resolve through the procedure's symbol table
to the *same* :class:`~repro.ir.symbols.Variable` object (identity is
what makes interprocedural sharing of globals work).

The verifier checks those invariants structurally.  Run it between
pipeline stages (``AnalysisConfig.verify_ir``) and corruption is
reported *at the pass that caused it*, with the procedure and block
named, instead of surfacing later as a baffling KeyError three passes
downstream.

Checks, in order:

- **CFG integrity**: no duplicate blocks, entry present, every
  successor edge targets a block in the graph, every reachable block is
  terminated, terminators only in tail position;
- **phi placement/arity**: phis only at block heads, with incoming
  keys exactly the block's predecessors;
- **SSA form** (``ssa=True``): every Def/Use is versioned, each
  ``(variable, version)`` is assigned exactly once, and each use is
  dominated by its definition (phi operands checked against the
  corresponding predecessor);
- **symbol-table consistency**: every non-temporary variable mentioned
  by an instruction resolves by name to itself in the procedure's
  symbol table — or is one of the program's scalar globals, which
  call-effect annotation (``annotate_call_effects``) passes through
  every call and return, so they, their phis and SSA versions reach
  procedures that never declare them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.dominance import compute_dominator_tree
from repro.ir.cfg import BasicBlock, ControlFlowGraph
from repro.ir.instructions import (
    ArrayLoad,
    ArrayStore,
    Call,
    Def,
    Instruction,
    Phi,
    Use,
)
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable


class VerificationError(Exception):
    """The IR violates a structural invariant; ``issues`` lists every
    violation found (each naming its procedure and block)."""

    def __init__(self, issues: List[str], stage: str = ""):
        self.issues = list(issues)
        self.stage = stage
        prefix = f"IR verification failed after {stage}" if stage else (
            "IR verification failed"
        )
        super().__init__(
            f"{prefix}:\n" + "\n".join(f"  - {issue}" for issue in self.issues)
        )


def verify_program(
    program: Program, ssa: bool = True, stage: str = ""
) -> None:
    """Verify every procedure of ``program``; raise
    :class:`VerificationError` listing all violations found."""
    issues: List[str] = []
    scalar_globals = program.scalar_globals()
    for procedure in program:
        issues.extend(verify_procedure(procedure, ssa, scalar_globals))
    if issues:
        raise VerificationError(issues, stage)


def verify_procedure(
    procedure: Procedure,
    ssa: bool = True,
    call_effect_globals: Iterable[Variable] = (),
) -> List[str]:
    """Collect invariant violations for one procedure (empty = clean).
    ``call_effect_globals``: the program's scalar globals, which may
    appear undeclared (:func:`verify_program` passes them)."""
    issues: List[str] = []
    cfg = procedure.cfg

    def problem(block: Optional[BasicBlock], message: str) -> None:
        where = f"block {block.name}: " if block is not None else ""
        issues.append(f"{procedure.name}: {where}{message}")

    in_graph = set(cfg.blocks)
    if len(in_graph) != len(cfg.blocks):
        problem(None, "duplicate block in CFG block list")
    if cfg.entry not in in_graph:
        problem(None, f"entry block {cfg.entry.name} not in CFG block list")
        return issues  # everything downstream would be nonsense

    # -- CFG integrity ------------------------------------------------------
    edges_ok = True
    for block in cfg.blocks:
        for succ in block.successors():
            if succ not in in_graph:
                edges_ok = False
                problem(
                    block,
                    f"successor edge to {succ.name} which is not in the CFG",
                )
        for position, instruction in enumerate(block.instructions):
            if (
                instruction.is_terminator
                and position != len(block.instructions) - 1
            ):
                problem(
                    block,
                    f"terminator {type(instruction).__name__} at position "
                    f"{position} is not the last instruction",
                )
        seen_non_phi = False
        for instruction in block.instructions:
            if isinstance(instruction, Phi):
                if seen_non_phi:
                    problem(block, "phi after a non-phi instruction")
            else:
                seen_non_phi = True

    # Recompute reachability and predecessors defensively, ignoring
    # edges that leave the graph: the CFG's own helpers assume the very
    # invariants being verified and would raise on a corrupt graph.
    reachable = _reachable_in_graph(cfg, in_graph)
    predecessors: Dict[BasicBlock, List[BasicBlock]] = {
        block: [] for block in cfg.blocks
    }
    for block in cfg.blocks:
        for succ in block.successors():
            if succ in in_graph:
                predecessors[succ].append(block)
    for block in reachable:
        if not block.is_terminated:
            problem(block, "reachable block has no terminator")

    # -- phi arity vs predecessors -----------------------------------------
    for block in cfg.blocks:
        preds = set(predecessors.get(block, ()))
        for phi in block.phis():
            incoming = set(phi.incoming)
            for extra in incoming - preds:
                problem(
                    block,
                    f"phi for {phi.target.var.name} has an incoming edge "
                    f"from {extra.name}, which is not a predecessor",
                )
            for missing in preds - incoming:
                problem(
                    block,
                    f"phi for {phi.target.var.name} is missing the incoming "
                    f"value from predecessor {missing.name}",
                )

    # -- symbol-table consistency ------------------------------------------
    hidden = set(call_effect_globals)
    for block in cfg.blocks:
        for instruction in block.instructions:
            for variable in _mentioned_variables(instruction):
                if variable.is_temp or variable in hidden:
                    continue
                bound = procedure.symbols.lookup(variable.name)
                if bound is not variable:
                    problem(
                        block,
                        f"variable {variable.name!r} (order {variable.order}) "
                        f"does not resolve to itself in the symbol table",
                    )

    # Dominance is undefined over a graph with dangling edges; report
    # the CFG corruption alone and check SSA once the edges are fixed.
    if ssa and edges_ok:
        issues.extend(_verify_ssa(procedure, reachable, predecessors))
    return issues


def _reachable_in_graph(cfg: ControlFlowGraph, in_graph) -> set:
    """Blocks reachable from entry following only in-graph edges."""
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for succ in stack.pop().successors():
            if succ in in_graph and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _mentioned_variables(instruction: Instruction):
    for use in instruction.uses():
        yield use.var
    for definition in instruction.defs():
        yield definition.var
    if isinstance(instruction, (ArrayLoad, ArrayStore)):
        yield instruction.array
    if isinstance(instruction, Call):
        for arg in instruction.args:
            if arg.array is not None:
                yield arg.array


def _verify_ssa(
    procedure: Procedure,
    reachable,
    predecessors: Dict[BasicBlock, List[BasicBlock]],
) -> List[str]:
    issues: List[str] = []
    cfg = procedure.cfg

    def problem(block: BasicBlock, message: str) -> None:
        issues.append(f"{procedure.name}: block {block.name}: {message}")

    # Single assignment + def site map. Version 0 is the implicit
    # entry definition of formals/globals and has no def site.
    def_site: Dict[Tuple[Variable, int], Tuple[BasicBlock, int]] = {}
    for block in cfg.blocks:
        for position, instruction in enumerate(block.instructions):
            for definition in instruction.defs():
                if definition.version is None:
                    problem(
                        block,
                        f"unversioned def of {definition.var.name} "
                        f"(SSA construction incomplete?)",
                    )
                    continue
                name = (definition.var, definition.version)
                if name in def_site:
                    other_block, _ = def_site[name]
                    problem(
                        block,
                        f"{definition.var.name}.{definition.version} is "
                        f"assigned more than once (also in block "
                        f"{other_block.name})",
                    )
                else:
                    def_site[name] = (block, position)

    if any("unversioned def" in issue for issue in issues):
        return issues  # not in SSA form: dominance checks are meaningless

    dom = compute_dominator_tree(cfg) if reachable else None

    for block in reachable:
        for position, instruction in enumerate(block.instructions):
            if isinstance(instruction, Phi):
                for pred, operand in instruction.incoming.items():
                    if isinstance(operand, Use):
                        issues.extend(
                            _check_use(
                                procedure, operand, pred,
                                len(pred.instructions), def_site, dom,
                                reachable, via_phi_in=block,
                            )
                        )
                continue
            for use in instruction.uses():
                issues.extend(
                    _check_use(
                        procedure, use, block, position, def_site, dom,
                        reachable, via_phi_in=None,
                    )
                )
    return issues


def _check_use(
    procedure: Procedure,
    use: Use,
    block: BasicBlock,
    position: int,
    def_site: Dict[Tuple[Variable, int], Tuple[BasicBlock, int]],
    dom,
    reachable,
    via_phi_in: Optional[BasicBlock],
) -> List[str]:
    """Check one (possibly phi-routed) use: versioned, defined, and
    dominated by its definition. For a phi operand, ``block`` is the
    predecessor contributing the value and ``position`` its block end."""
    where = (
        f"phi in block {via_phi_in.name} (edge from {block.name})"
        if via_phi_in is not None
        else f"block {block.name}"
    )

    def issue(message: str) -> List[str]:
        return [f"{procedure.name}: {where}: {message}"]

    if use.version is None:
        return issue(f"unversioned use of {use.var.name}")
    if use.version == 0:
        return []  # entry value: defined at procedure entry by convention
    site = def_site.get((use.var, use.version))
    if site is None:
        return issue(
            f"use of {use.var.name}.{use.version} which is never defined"
        )
    def_block, def_position = site
    if def_block not in reachable:
        return issue(
            f"use of {use.var.name}.{use.version} defined in unreachable "
            f"block {def_block.name}"
        )
    if def_block is block:
        if def_position >= position:
            return issue(
                f"use of {use.var.name}.{use.version} before its "
                f"definition in the same block"
            )
        return []
    if dom is not None and not dom.dominates(def_block, block):
        return issue(
            f"use of {use.var.name}.{use.version} is not dominated by its "
            f"definition in block {def_block.name}"
        )
    return []
