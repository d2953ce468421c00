"""The program call graph ``G``.

Each node is a procedure; each edge is one *call site* — a specific Call
instruction in the caller (two calls from ``p`` to ``q`` are two edges,
each carrying its own jump functions, exactly as in the paper's
formulation).

Besides adjacency queries the graph provides the traversal orders the
IPCP pipeline needs:

- :meth:`CallGraph.bottom_up_order` — callees before callers (return
  jump function generation, §4.1 phase 1);
- :meth:`CallGraph.top_down_order` — callers before callees (forward
  jump function generation, phase 2);
- :meth:`CallGraph.sccs` — Tarjan strongly connected components, used to
  treat recursive cycles conservatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.ir.instructions import Call
from repro.ir.module import Procedure, Program


@dataclass(frozen=True)
class CallSite:
    """One edge of the call graph."""

    caller: Procedure
    call: Call
    callee: Procedure

    def __repr__(self) -> str:
        return f"CallSite({self.caller.name} -> {self.callee.name})"


class CallGraph:
    """Immutable view of a program's procedures and call sites."""

    def __init__(self, program: Program, sites: List[CallSite]):
        self.program = program
        self.sites = sites
        self._out: Dict[Procedure, List[CallSite]] = {p: [] for p in program}
        self._in: Dict[Procedure, List[CallSite]] = {p: [] for p in program}
        for site in sites:
            self._out[site.caller].append(site)
            self._in[site.callee].append(site)
        self._sccs: Optional[List[List[Procedure]]] = None

    # -- adjacency ----------------------------------------------------------

    def nodes(self) -> List[Procedure]:
        return list(self.program)

    def sites_from(self, procedure: Procedure) -> List[CallSite]:
        return list(self._out[procedure])

    def sites_into(self, procedure: Procedure) -> List[CallSite]:
        return list(self._in[procedure])

    def callees(self, procedure: Procedure) -> List[Procedure]:
        seen: Set[Procedure] = set()
        result: List[Procedure] = []
        for site in self._out[procedure]:
            if site.callee not in seen:
                seen.add(site.callee)
                result.append(site.callee)
        return result

    def callers(self, procedure: Procedure) -> List[Procedure]:
        seen: Set[Procedure] = set()
        result: List[Procedure] = []
        for site in self._in[procedure]:
            if site.caller not in seen:
                seen.add(site.caller)
                result.append(site.caller)
        return result

    def site_for_call(self, call: Call) -> Optional[CallSite]:
        for site in self.sites:
            if site.call is call:
                return site
        return None

    # -- orders ---------------------------------------------------------------

    def sccs(self) -> List[List[Procedure]]:
        """Strongly connected components (Tarjan), in reverse topological
        order of the condensation: every component appears before any
        component that calls into it... i.e. callees first. Computed
        once per graph (it never changes)."""
        if self._sccs is None:
            self._sccs = self._tarjan()
        return [list(component) for component in self._sccs]

    def _tarjan(self) -> List[List[Procedure]]:
        index_counter = [0]
        indices: Dict[Procedure, int] = {}
        lowlinks: Dict[Procedure, int] = {}
        on_stack: Set[Procedure] = set()
        stack: List[Procedure] = []
        components: List[List[Procedure]] = []

        def strongconnect(root: Procedure) -> None:
            # Iterative Tarjan to survive deep call chains.
            work = [(root, iter(self.callees(root)))]
            indices[root] = lowlinks[root] = index_counter[0]
            index_counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, callee_iter = work[-1]
                advanced = False
                for callee in callee_iter:
                    if callee not in indices:
                        indices[callee] = lowlinks[callee] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(callee)
                        on_stack.add(callee)
                        work.append((callee, iter(self.callees(callee))))
                        advanced = True
                        break
                    if callee in on_stack:
                        lowlinks[node] = min(lowlinks[node], indices[callee])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
                if lowlinks[node] == indices[node]:
                    component: List[Procedure] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member is node:
                            break
                    components.append(component)

        for procedure in self.program:
            if procedure not in indices:
                strongconnect(procedure)
        return components

    def bottom_up_order(self) -> List[Procedure]:
        """Procedures with every (non-recursive) callee earlier."""
        order: List[Procedure] = []
        for component in self.sccs():
            order.extend(component)
        return order

    def top_down_order(self) -> List[Procedure]:
        """Procedures with every (non-recursive) caller earlier."""
        return list(reversed(self.bottom_up_order()))

    def reverse_postorder(self) -> List[Procedure]:
        """Depth-first reverse postorder over call edges, rooted at the
        main program (then any unreached procedure, in program order).

        On the acyclic condensation this is a topological order —
        callers before callees — which is the natural propagation
        direction for the solver's worklist: VAL sets flow from main
        toward the leaves, so seeding in this order reaches the
        fixpoint with fewer revisits than an arbitrary order."""
        visited: Set[Procedure] = set()
        postorder: List[Procedure] = []
        roots: List[Procedure] = []
        if self.program.main is not None:
            roots.append(self.program.main)
        roots.extend(p for p in self.program if p is not self.program.main)
        for root in roots:
            if root in visited:
                continue
            visited.add(root)
            stack = [(root, iter(self.callees(root)))]
            while stack:
                node, callee_iter = stack[-1]
                advanced = False
                for callee in callee_iter:
                    if callee not in visited:
                        visited.add(callee)
                        stack.append((callee, iter(self.callees(callee))))
                        advanced = True
                        break
                if advanced:
                    continue
                stack.pop()
                postorder.append(node)
        return list(reversed(postorder))

    def reachable_from_main(self) -> Set[Procedure]:
        """Procedures transitively callable from the main program (main
        itself included). Everything else is dead code at link level."""
        main = self.program.main
        if main is None:
            return set(self.program)
        reachable: Set[Procedure] = {main}
        worklist = [main]
        while worklist:
            current = worklist.pop()
            for callee in self.callees(current):
                if callee not in reachable:
                    reachable.add(callee)
                    worklist.append(callee)
        return reachable

    def recursive_procedures(self) -> Set[Procedure]:
        """Members of nontrivial SCCs, plus directly self-recursive
        procedures."""
        recursive: Set[Procedure] = set()
        for component in self.sccs():
            if len(component) > 1:
                recursive.update(component)
        for site in self.sites:
            if site.caller is site.callee:
                recursive.add(site.caller)
        return recursive


def build_call_graph(program: Program) -> CallGraph:
    """Construct the call graph of ``program``."""
    sites: List[CallSite] = []
    for procedure in program:
        for call in procedure.call_sites():
            sites.append(CallSite(procedure, call, program.procedure(call.callee)))
    return CallGraph(program, sites)
