"""Forward jump functions (§3.1).

For a call site ``s`` in procedure ``p`` and an actual parameter ``y``
(explicit argument or implicitly passed global), the forward jump
function ``J_s^y`` gives the value of ``y`` at ``s`` as a function of
``p``'s entry values. Four implementations, in increasing power:

====================  =====================================================
literal               constant only when the actual is a literal at the
                      call site; misses globals entirely
intraprocedural       ``gcp(y, s)`` — the constant value numbering proves,
                      with MOD information and (constant-evaluated) return
                      jump functions folded in; still no incoming values
pass-through          additionally, an actual that is an unmodified copy
                      of a formal/global forwards that entry value —
                      constants now cross paths of length > 1 in G
polynomial            additionally, any actual expressible as a polynomial
                      of entry values
====================  =====================================================

All four are extracted from one value-numbering pass (§3: "we built a
set of jump functions on top of an existing framework for global value
numbering"), so the comparison between them is apples-to-apples. Each
is built once, before propagation begins, and re-evaluated against the
caller's VAL set as the solver iterates.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro._record import Record
from repro.analysis.expr import ConstExpr, EntryExpr, Expr
from repro.analysis.value_numbering import ValueNumbering
from repro.callgraph.callgraph import CallGraph
from repro.config import AnalysisBudget, BudgetExceeded, JumpFunctionKind
from repro.ir.instructions import Call, Const, Operand, Use
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable
from repro.lattice import BOTTOM, LatticeValue, TOP, const
from repro.poly.polynomial import Polynomial, expr_to_polynomial
from repro.ipcp.resilience import BOTTOM_KIND, ResilienceReport
from repro.ipcp.return_functions import ForwardCallSemantics, ReturnFunctionMap


class ForwardJumpFunction(Record):
    """``J_s^y`` for one (call site, callee entry variable) pair.

    Exactly one payload is set: ``constant`` (the value is a known
    constant), ``source_var`` (pass-through of a caller entry value), or
    ``polynomial``; all three None means ⊥ — the jump function can never
    produce a constant.
    """

    __slots__ = _fields = ("kind", "call", "target", "constant",
                           "source_var", "polynomial")

    def __init__(
        self,
        kind: JumpFunctionKind,
        call: Call,
        target: Variable,
        constant: Optional[int] = None,
        source_var: Optional[Variable] = None,
        polynomial: Optional[Polynomial] = None,
    ):
        self.kind = kind
        self.call = call
        self.target = target
        self.constant = constant
        self.source_var = source_var
        self.polynomial = polynomial

    @property
    def is_bottom(self) -> bool:
        return (
            self.constant is None
            and self.source_var is None
            and self.polynomial is None
        )

    @property
    def support(self) -> frozenset:
        """The exact set of caller entry variables used (§2)."""
        if self.source_var is not None:
            return frozenset((self.source_var,))
        if self.polynomial is not None:
            return self.polynomial.support()
        return frozenset()

    def evaluate(
        self, caller_value: Callable[[Variable], LatticeValue]
    ) -> LatticeValue:
        """Evaluate against the caller's current VAL set.

        Monotone in its inputs: TOP anywhere in the support keeps the
        result optimistic, ⊥ anywhere forces ⊥.
        """
        if self.constant is not None:
            return const(self.constant)
        if self.source_var is not None:
            return caller_value(self.source_var)
        if self.polynomial is not None:
            env: Dict[Variable, int] = {}
            for variable in self.polynomial.support():
                value = caller_value(variable)
                if value.is_bottom:
                    return BOTTOM
                if value.is_top:
                    return TOP
                env[variable] = value.value
            result = self.polynomial.evaluate(env)
            return BOTTOM if result is None else const(result)
        return BOTTOM

    def cost(self) -> int:
        """Abstract evaluation cost (operand touches), for the §3.1.5
        complexity accounting."""
        if self.constant is not None or self.is_bottom:
            return 1
        if self.source_var is not None:
            return 1
        return 1 + len(self.polynomial.terms)

    def __repr__(self) -> str:
        if self.constant is not None:
            payload = str(self.constant)
        elif self.source_var is not None:
            payload = f"pass({self.source_var.name})"
        elif self.polynomial is not None:
            payload = repr(self.polynomial)
        else:
            payload = "_|_"
        return f"J^{self.target.name}[{self.kind.value}] = {payload}"


class JumpFunctionTable:
    """All forward jump functions of one configuration."""

    def __init__(self, kind: JumpFunctionKind):
        self.kind = kind
        self._by_slot: Dict[Tuple[Call, Variable], ForwardJumpFunction] = {}
        self._by_call: Dict[Call, List[ForwardJumpFunction]] = {}

    def add(self, function: ForwardJumpFunction) -> None:
        self._by_slot[(function.call, function.target)] = function
        self._by_call.setdefault(function.call, []).append(function)

    def lookup(self, call: Call, target: Variable) -> Optional[ForwardJumpFunction]:
        return self._by_slot.get((call, target))

    def for_call(self, call: Call) -> List[ForwardJumpFunction]:
        return list(self._by_call.get(call, ()))

    def __len__(self) -> int:
        return len(self._by_slot)

    def __iter__(self):
        return iter(self._by_slot.values())

    def payload_counts(self) -> Dict[str, int]:
        """How many jump functions fell into each payload class."""
        counts = {"constant": 0, "pass_through": 0, "polynomial": 0, "bottom": 0}
        for function in self:
            if function.constant is not None:
                counts["constant"] += 1
            elif function.source_var is not None:
                counts["pass_through"] += 1
            elif function.polynomial is not None:
                counts["polynomial"] += 1
            else:
                counts["bottom"] += 1
        return counts


#: Demotion chain for graceful degradation: each kind's next-weaker
#: fallback; ``None`` past LITERAL means ⊥ (a payload-less function).
WEAKER_KIND = {
    JumpFunctionKind.POLYNOMIAL: JumpFunctionKind.PASS_THROUGH,
    JumpFunctionKind.PASS_THROUGH: JumpFunctionKind.INTRAPROCEDURAL,
    JumpFunctionKind.INTRAPROCEDURAL: JumpFunctionKind.LITERAL,
    JumpFunctionKind.LITERAL: None,
}


def check_polynomial_budget(
    polynomial: Optional[Polynomial], budget: Optional[AnalysisBudget]
) -> None:
    """Raise :class:`BudgetExceeded` for an oversized polynomial."""
    if polynomial is None or budget is None:
        return
    if (
        budget.polynomial_terms is not None
        and len(polynomial.terms) > budget.polynomial_terms
    ):
        raise BudgetExceeded(
            "polynomial size",
            budget.polynomial_terms,
            f"{len(polynomial.terms)} terms",
        )
    if (
        budget.polynomial_degree is not None
        and polynomial.degree() > budget.polynomial_degree
    ):
        raise BudgetExceeded(
            "polynomial degree",
            budget.polynomial_degree,
            f"degree {polynomial.degree()}",
        )


def _call_site_label(procedure_name: str, call: Call, target: Variable) -> str:
    where = f" @ {call.location}" if call.location is not None else ""
    return f"{procedure_name}: call {call.callee}{where} / {target.name}"


def _make_jump_function_guarded(
    kind: JumpFunctionKind,
    call: Call,
    target: Variable,
    operand: Operand,
    numbering: ValueNumbering,
    is_global: bool,
    sccp_result,
    budget: Optional[AnalysisBudget],
    resilience: ResilienceReport,
    fault_isolation: bool,
    procedure_name: str,
) -> ForwardJumpFunction:
    """Build ``J_s^y``, demoting down :data:`WEAKER_KIND` on failure.

    A :class:`BudgetExceeded` (oversized polynomial) always demotes;
    any other exception demotes only under ``fault_isolation`` —
    soundness holds because every weaker kind (ultimately ⊥) computes a
    value ≤ the intended one in the lattice order.
    """
    current: Optional[JumpFunctionKind] = kind
    last_reason = ""
    while current is not None:
        try:
            function = _make_jump_function(
                current, call, target, operand, numbering,
                is_global=is_global, sccp_result=sccp_result,
            )
            check_polynomial_budget(function.polynomial, budget)
        except BudgetExceeded as err:
            last_reason = str(err)
        except Exception as err:  # noqa: BLE001 — fault isolation boundary
            if not fault_isolation:
                raise
            last_reason = f"{type(err).__name__}: {err}"
        else:
            if current is not kind:
                resilience.record(
                    "jump_function",
                    _call_site_label(procedure_name, call, target),
                    kind.value,
                    current.value,
                    last_reason,
                )
            return function
        current = WEAKER_KIND[current]
    resilience.record(
        "jump_function",
        _call_site_label(procedure_name, call, target),
        kind.value,
        BOTTOM_KIND,
        last_reason,
    )
    return ForwardJumpFunction(kind, call, target)


def build_forward_jump_functions(
    program: Program,
    callgraph: CallGraph,
    kind: JumpFunctionKind,
    return_map: Optional[ReturnFunctionMap] = None,
    gcp_oracle: str = "value_numbering",
    budget: Optional[AnalysisBudget] = None,
    resilience: Optional[ResilienceReport] = None,
    fault_isolation: bool = True,
) -> JumpFunctionTable:
    """Generate forward jump functions in a top-down pass (§4.1).

    Value numbering runs once per procedure with
    :class:`ForwardCallSemantics` (return jump functions admit only
    constant evaluations here); the requested jump-function class is
    then extracted from the resulting expressions.

    ``gcp_oracle`` selects how the §3.1 constant oracle is computed:
    ``"value_numbering"`` reads constants straight off the expressions
    (the paper's implementation); ``"sccp"`` additionally runs sparse
    conditional constant propagation per procedure, whose dead-branch
    pruning can prove more call-site operands constant.
    """
    if gcp_oracle not in ("value_numbering", "sccp"):
        raise ValueError(f"unknown gcp oracle {gcp_oracle!r}")
    table = JumpFunctionTable(kind)
    return_map = return_map or ReturnFunctionMap()
    for procedure in callgraph.top_down_order():
        build_forward_jump_functions_for(
            program, procedure, kind, table, return_map,
            gcp_oracle=gcp_oracle, budget=budget, resilience=resilience,
            fault_isolation=fault_isolation,
        )
    return table


def build_forward_jump_functions_for(
    program: Program,
    procedure: Procedure,
    kind: JumpFunctionKind,
    table: JumpFunctionTable,
    return_map: ReturnFunctionMap,
    gcp_oracle: str = "value_numbering",
    budget: Optional[AnalysisBudget] = None,
    resilience: Optional[ResilienceReport] = None,
    fault_isolation: bool = True,
    entry_values: Optional[Dict[Variable, LatticeValue]] = None,
    excluded: Optional[set] = None,
) -> None:
    """Build the forward jump functions of every call site *in*
    ``procedure`` into ``table``. Independent across procedures (the
    return map is read-only here), which is what lets the engine fan
    this out per procedure.

    GSA-style refinement passes the other two arguments:
    ``entry_values`` seeds the SCCP oracle's entry (⊥ everywhere when
    None), and a call in a block that SCCP proves never executes goes
    into ``excluded`` instead of getting jump functions.
    """
    numbering = ValueNumbering(
        procedure, ForwardCallSemantics(program, return_map)
    )

    def make(call, target, operand, is_global, sccp_result):
        if resilience is None:
            return _make_jump_function(
                kind, call, target, operand, numbering,
                is_global=is_global, sccp_result=sccp_result,
            )
        return _make_jump_function_guarded(
            kind, call, target, operand, numbering,
            is_global=is_global, sccp_result=sccp_result,
            budget=budget, resilience=resilience,
            fault_isolation=fault_isolation,
            procedure_name=procedure.name,
        )

    sccp_result = None
    if gcp_oracle == "sccp":
        from repro.analysis.sccp import run_sccp
        from repro.ipcp.return_functions import ReturnFunctionCallModel

        try:
            sccp_result = run_sccp(
                procedure,
                entry_values=entry_values,
                call_model=ReturnFunctionCallModel(program, return_map),
                max_visits=budget.sccp_visits if budget else None,
            )
        except BudgetExceeded as err:
            if resilience is None:
                raise
            # Fall back to the plain value-numbering oracle for this
            # one procedure (strictly weaker, hence sound), keeping all
            # of its call sites.
            resilience.record(
                "sccp_oracle", procedure.name, "sccp",
                "value_numbering", str(err),
            )
        except Exception as err:  # noqa: BLE001 — fault isolation
            if resilience is None or not fault_isolation:
                raise
            resilience.record(
                "sccp_oracle", procedure.name, "sccp",
                "value_numbering", f"{type(err).__name__}: {err}",
            )
    dead_calls = set()
    if excluded is not None and sccp_result is not None:
        for block in sccp_result.dead_blocks():
            dead_calls.update(
                i for i in block.instructions if isinstance(i, Call)
            )
    for call in procedure.call_sites():
        if call in dead_calls:
            excluded.add(call)
            continue
        callee = program.procedure(call.callee)
        for formal, arg in zip(callee.formals, call.args):
            if not formal.is_scalar or arg.is_array:
                continue
            table.add(make(call, formal, arg.value, False, sccp_result))
        for use in call.entry_uses:
            table.add(make(call, use.var, use, True, sccp_result))


def build_refined_jump_functions(
    program: Program,
    callgraph: CallGraph,
    kind: JumpFunctionKind,
    return_map: ReturnFunctionMap,
    constants,
    budget: Optional[AnalysisBudget] = None,
    resilience: Optional[ResilienceReport] = None,
    fault_isolation: bool = True,
) -> "Tuple[JumpFunctionTable, set]":
    """Gated-single-assignment-style generation (the paper's §4.2
    remark: "the results that we obtained with complete propagation can
    be achieved by basing the jump-function generator on gated
    single-assignment form ... [which] would never consider the dead
    assignments").

    Seeds each procedure's SCCP with the CONSTANTS discovered by a prior
    propagation round, so the constant oracle is branch-sensitive under
    interprocedural knowledge, and call sites in never-executed branches
    are *excluded* from the call graph's meets entirely. Returns
    ``(table, excluded_calls)``.
    """
    table = JumpFunctionTable(kind)
    excluded: set = set()
    for procedure in callgraph.top_down_order():
        build_forward_jump_functions_for(
            program, procedure, kind, table, return_map, gcp_oracle="sccp",
            budget=budget, resilience=resilience,
            fault_isolation=fault_isolation,
            entry_values=constants.entry_lattice(procedure),
            excluded=excluded,
        )
    return table, excluded


def _make_jump_function(
    kind: JumpFunctionKind,
    call: Call,
    target: Variable,
    operand: Operand,
    numbering: ValueNumbering,
    is_global: bool,
    sccp_result=None,
) -> ForwardJumpFunction:
    function = ForwardJumpFunction(kind, call, target)

    if kind is JumpFunctionKind.LITERAL:
        # Only a textual literal at the call site; constant globals are
        # passed implicitly and therefore missed entirely (§3.1.1).
        if not is_global and isinstance(operand, Const):
            function.constant = operand.value
        return function

    expr = numbering.operand_expr(operand)
    if isinstance(expr, ConstExpr):
        # gcp(y, s) produced a constant — shared by the three nontrivial
        # kinds (§3.1.2-3.1.4 all start "if gcp(y, s) = c").
        function.constant = expr.value
        return function
    if sccp_result is not None:
        # The stronger SCCP-based gcp oracle: branch-sensitive.
        value = sccp_result.operand_value(operand)
        if value.is_constant:
            function.constant = value.value
            return function

    if kind is JumpFunctionKind.INTRAPROCEDURAL:
        return function  # no incoming values: anything else is ⊥

    if kind is JumpFunctionKind.PASS_THROUGH:
        if isinstance(expr, EntryExpr):
            function.source_var = expr.var
        return function

    # Polynomial: the most general class.
    polynomial = expr_to_polynomial(expr)
    if polynomial is not None:
        identity = polynomial.is_single_variable_identity()
        if identity is not None:
            function.source_var = identity
        else:
            function.polynomial = polynomial
    return function
