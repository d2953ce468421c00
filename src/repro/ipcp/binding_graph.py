"""The binding multi-graph solver — the alternative formulation of the
interprocedural propagation (§2: "Alternative formulations based on the
binding multi-graph are possible [Cooper & Kennedy]; the method
presented by Callahan et al. essentially models the binding graph
computation on the call graph").

Where the call-graph worklist solver re-evaluates *every* parameter of a
procedure when anything about it changes, the binding multi-graph is
parameter-grained:

- a **node** is one (procedure, parameter) pair — a cell of some VAL set
  (parameters include globals, as everywhere in this implementation);
- an **edge** runs from the jump function of one call-site actual to the
  callee parameter it feeds, and *depends on* exactly the caller
  parameters in the jump function's support.

Propagation pushes individual edges: when a node lowers, only the edges
whose support mentions it are re-evaluated. This realizes the paper's
complexity accounting directly — each node can lower at most twice
(Figure 1's bounded depth), so each edge is re-evaluated O(|support|)
times, giving the §3.1.5 bound O(Σ_s Σ_y cost(J_s^y) · |support(J_s^y)|).

The fixpoint is identical to the call-graph solver's (asserted by tests
and the solver-ablation benchmark); only the amount of work differs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.callgraph.callgraph import CallGraph
from repro.ipcp.constants import ConstantsResult
from repro.ipcp.jump_functions import ForwardJumpFunction, JumpFunctionTable
from repro.ipcp.solver import PropagationResult, PropagationStats, entry_domain
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable
from repro.lattice import BOTTOM, LatticeValue, TOP, meet_all

#: A node of the binding multi-graph.
Node = Tuple[str, Variable]


@dataclass
class BindingEdge:
    """One jump-function edge of the multi-graph."""

    caller: str
    callee: str
    target: Node
    function: ForwardJumpFunction

    @property
    def support_nodes(self) -> List[Node]:
        return [(self.caller, var) for var in self.function.support]


class BindingMultiGraph:
    """The multi-graph: nodes, edges, and the dependence index used to
    schedule re-evaluations."""

    def __init__(self, program: Program, callgraph: CallGraph,
                 table: JumpFunctionTable):
        self.program = program
        self.nodes: List[Node] = []
        self.edges: List[BindingEdge] = []
        #: Edges delivering a value *into* each node.
        self.in_edges: Dict[Node, List[BindingEdge]] = {}
        #: Edges whose jump-function support mentions each node.
        self.dependents: Dict[Node, List[BindingEdge]] = {}
        self._build(callgraph, table)

    def _build(self, callgraph: CallGraph, table: JumpFunctionTable) -> None:
        scalar_globals = self.program.scalar_globals()
        for procedure in self.program:
            for var in entry_domain(procedure, self.program, scalar_globals):
                node = (procedure.name, var)
                self.nodes.append(node)
                self.in_edges[node] = []
                self.dependents[node] = []
        for site in callgraph.sites:
            for var in entry_domain(site.callee, self.program,
                                    scalar_globals):
                target = (site.callee.name, var)
                function = table.lookup(site.call, var)
                if function is None:
                    # No jump function: a permanent bottom edge.
                    function = ForwardJumpFunction(table.kind, site.call, var)
                edge = BindingEdge(
                    site.caller.name, site.callee.name, target, function
                )
                self.edges.append(edge)
                self.in_edges[target].append(edge)
        for edge in self.edges:
            for node in edge.support_nodes:
                if node in self.dependents:
                    self.dependents[node].append(edge)

    def statistics(self) -> Dict[str, int]:
        """Structural statistics (used by the ablation benchmark)."""
        return {
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "total_support": sum(len(e.function.support) for e in self.edges),
        }


def propagate_binding_graph(
    program: Program,
    callgraph: CallGraph,
    table: JumpFunctionTable,
) -> PropagationResult:
    """Solve the interprocedural problem on the binding multi-graph.

    Produces the same CONSTANTS sets as
    :func:`repro.ipcp.solver.propagate`; the stats reflect the finer
    granularity (jump-function evaluations instead of whole-procedure
    recomputations).
    """
    graph = BindingMultiGraph(program, callgraph, table)
    stats = PropagationStats()

    from repro.ipcp.solver import initial_value

    val: Dict[Node, LatticeValue] = {}
    for node in graph.nodes:
        procedure_name, var = node
        val[node] = initial_value(
            program.procedures[procedure_name], var, program
        )

    def caller_value_fn(caller: str):
        def lookup(var: Variable) -> LatticeValue:
            return val.get((caller, var), BOTTOM)

        return lookup

    def evaluate_node(node: Node) -> LatticeValue:
        incoming = []
        for edge in graph.in_edges[node]:
            stats.jump_function_evaluations += 1
            incoming.append(
                edge.function.evaluate(caller_value_fn(edge.caller))
            )
        stats.meets += len(incoming)
        return meet_all(incoming)

    # Seed: every non-main node with at least one incoming edge.
    worklist = deque(
        node
        for node in graph.nodes
        if graph.in_edges[node] and not program.procedures[node[0]].is_main
    )
    queued: Set[Node] = set(worklist)

    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        stats.procedure_visits += 1  # here: node visits
        new_value = val[node].meet(evaluate_node(node))
        if new_value == val[node]:
            continue
        val[node] = new_value
        stats.lowerings += 1
        for edge in graph.dependents[node]:
            if program.procedures[edge.target[0]].is_main:
                continue
            if edge.target not in queued:
                queued.add(edge.target)
                worklist.append(edge.target)

    per_procedure: Dict[str, Dict[Variable, LatticeValue]] = {
        p.name: {} for p in program
    }
    for (procedure_name, var), value in val.items():
        per_procedure[procedure_name][var] = value
    return PropagationResult(ConstantsResult(per_procedure), stats)
