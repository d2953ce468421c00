"""Interprocedural propagation of VAL sets around the call graph (§2).

A simple worklist iterative scheme, exactly as the study used ("the
results presented in this paper were computed using a simple worklist
iterative scheme"): each procedure's VAL set is the meet, over every
call-graph edge entering it, of its forward jump functions evaluated
against the caller's current VAL set. When a procedure's VAL set lowers,
its callees are reconsidered.

Termination: the Figure 1 lattice has depth 2, so each (procedure,
parameter) cell lowers at most twice; jump-function evaluation is
monotone; hence the fixpoint is reached in a bounded number of meets.

Initial values: every parameter of every procedure starts at ⊤ — "x
retains the value ⊤ only if the procedure containing x is never called".
The main program is the exception: it is invoked by the system, its
globals hold unknown (⊥) values at startup (MiniFortran COMMON storage
is uninitialized).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set

from repro._record import Record
from repro.callgraph.callgraph import CallGraph
from repro.ipcp.constants import ConstantsResult
from repro.ipcp.jump_functions import JumpFunctionTable
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable
from repro.lattice import BOTTOM, LatticeValue, TOP, meet_all
from repro.obs import trace


class PropagationStats(Record):
    """Work counters for the complexity ablations."""

    __slots__ = _fields = ("procedure_visits", "jump_function_evaluations",
                           "meets", "lowerings")

    def __init__(self, procedure_visits: int = 0,
                 jump_function_evaluations: int = 0, meets: int = 0,
                 lowerings: int = 0):
        self.procedure_visits = procedure_visits
        self.jump_function_evaluations = jump_function_evaluations
        self.meets = meets
        self.lowerings = lowerings


class _Worklist:
    """FIFO worklist with explicit duplicate-enqueue bookkeeping.

    ``_pending`` tracks exact membership: a push of an already-pending
    procedure is dropped (one entry per procedure, ever), and every pop
    prunes the popped procedure from ``_pending`` so it can be re-queued
    by a later lowering. Keeping the set and the queue behind one
    interface makes it impossible to update one without the other (the
    failure mode a bare ``deque`` + ``set`` pair invites).
    """

    def __init__(self):
        self._pending: Set[Procedure] = set()
        self._queue: deque = deque()

    def push(self, procedure: Procedure) -> bool:
        if procedure in self._pending:
            return False
        self._pending.add(procedure)
        self._queue.append(procedure)
        return True

    def pop(self) -> Procedure:
        procedure = self._queue.popleft()
        self._pending.discard(procedure)
        return procedure

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)


class PropagationResult(Record):
    """VAL sets at fixpoint plus work statistics.

    ``excluded`` carries the call sites removed from the meets (GSA
    refinement) — provenance reconstruction needs them to explain why
    a site does not appear in a cell's derivation.
    """

    __slots__ = _fields = ("constants", "stats", "excluded")

    def __init__(self, constants: ConstantsResult, stats: PropagationStats,
                 excluded: frozenset = frozenset()):
        self.constants = constants
        self.stats = stats
        self.excluded = excluded


def entry_domain(
    procedure: Procedure, program: Program,
    scalar_globals: Optional[List[Variable]] = None,
) -> List[Variable]:
    """The parameters tracked for ``procedure``: its scalar formals plus
    every scalar global (the paper's footnote-1 extension of "parameter"
    to global variables). ``scalar_globals`` is
    ``program.scalar_globals()``, which a caller asking for many
    procedures' domains computes once."""
    domain = [v for v in procedure.formals if v.is_scalar]
    domain.extend(
        program.scalar_globals() if scalar_globals is None
        else scalar_globals
    )
    return domain


def initial_value(procedure: Procedure, var: Variable, program: Program) -> LatticeValue:
    """The starting VAL cell: ⊤ everywhere except the main program,
    whose entry is the system — its globals hold their BLOCK DATA
    initial values when present, and are unknown (⊥) otherwise."""
    if not procedure.is_main:
        return TOP
    if var in program.global_initial_values:
        from repro.lattice import const

        return const(program.global_initial_values[var])
    return BOTTOM


def propagate(
    program: Program,
    callgraph: CallGraph,
    table: JumpFunctionTable,
    excluded_calls: Optional[Set] = None,
    max_visits: Optional[int] = None,
    resilience=None,
) -> PropagationResult:
    """Run the iterative propagation to its fixpoint.

    The worklist is a FIFO queue seeded in reverse postorder over the
    call graph, so values flow from main toward the leaves on the first
    sweep; a procedure whose VAL set lowers queues its callees again.
    ``excluded_calls`` removes specific call sites from the meets — the
    GSA-style refinement marks never-executed calls this way (§4.2).

    ``max_visits`` is the solver's fuel (``AnalysisBudget.
    solver_visits``): when the worklist exceeds it, iteration stops and
    every non-main VAL cell drops to ⊥ — a sound fixpoint-free answer
    (⊥ claims nothing; main's cells are propagation *inputs*, not
    iterated). The exhaustion is recorded on ``resilience`` when given.
    """
    stats = PropagationStats()
    val: Dict[str, Dict[Variable, LatticeValue]] = {}
    scalar_globals = program.scalar_globals()
    for procedure in program:
        val[procedure.name] = {
            var: initial_value(procedure, var, program)
            for var in entry_domain(procedure, program, scalar_globals)
        }

    worklist = _Worklist()
    for procedure in callgraph.reverse_postorder():
        if not procedure.is_main:
            worklist.push(procedure)
    excluded_calls = excluded_calls or set()

    while worklist:
        if max_visits is not None and stats.procedure_visits >= max_visits:
            _exhaust_to_bottom(program, val)
            if resilience is not None:
                resilience.record(
                    "solver", "<interprocedural worklist>", "fixpoint",
                    "bottom",
                    f"propagation exceeded its budget of {max_visits} "
                    f"procedure visits",
                )
            if trace.ENABLED:
                trace.instant("solver.exhausted", budget=max_visits)
            break
        procedure = worklist.pop()
        stats.procedure_visits += 1
        if trace.ENABLED:
            trace.instant(
                "solver.visit", procedure=procedure.name,
                pending=len(worklist), visit=stats.procedure_visits,
            )
        if _recompute_val(
            program, callgraph, table, procedure, val, stats, excluded_calls
        ):
            for callee in callgraph.callees(procedure):
                if not callee.is_main:
                    worklist.push(callee)

    return PropagationResult(
        ConstantsResult(val), stats, frozenset(excluded_calls)
    )


def _exhaust_to_bottom(
    program: Program, val: Dict[str, Dict[Variable, LatticeValue]]
) -> None:
    """Drop every non-main VAL cell to ⊥ after fuel exhaustion. Partial
    worklist results are not a fixpoint and therefore unsound to keep:
    a cell still at ⊤/const might have lowered had iteration continued."""
    for procedure in program:
        if procedure.is_main:
            continue
        cells = val[procedure.name]
        for var in cells:
            cells[var] = BOTTOM


def _recompute_val(
    program: Program,
    callgraph: CallGraph,
    table: JumpFunctionTable,
    procedure: Procedure,
    val: Dict[str, Dict[Variable, LatticeValue]],
    stats: PropagationStats,
    excluded_calls: Optional[Set] = None,
) -> bool:
    """Meet the jump-function values over all incoming edges; True when
    any cell of VAL(procedure) lowered."""
    sites = [
        s
        for s in callgraph.sites_into(procedure)
        if not excluded_calls or s.call not in excluded_calls
    ]
    current = val[procedure.name]
    changed = False
    for var in current:
        incoming: List[LatticeValue] = []
        for site in sites:
            caller_val = val[site.caller.name]

            def caller_value(v: Variable, _caller_val=caller_val) -> LatticeValue:
                return _caller_val.get(v, BOTTOM)

            function = table.lookup(site.call, var)
            if function is None:
                # No jump function was built for this slot (array formal
                # passed positionally, etc.): be safe.
                incoming.append(BOTTOM)
                continue
            stats.jump_function_evaluations += 1
            incoming.append(function.evaluate(caller_value))
        stats.meets += max(0, len(incoming))
        new_value = current[var].meet(meet_all(incoming))
        if new_value != current[var]:
            if trace.ENABLED and new_value.is_bottom:
                trace.instant(
                    "solver.meet_bottom", procedure=procedure.name,
                    name=var.name, sites=len(sites),
                )
            current[var] = new_value
            stats.lowerings += 1
            changed = True
    return changed
