"""Return jump functions (§3.2).

For a procedure ``p`` and a scalar ``x`` that ``p`` may modify (a
reference formal, a global, or the function result), the return jump
function ``R_p^x`` approximates ``x``'s value on return from ``p`` as a
polynomial over ``p``'s entry values. Construction happens during a
bottom-up walk of the call graph: each procedure is value-numbered with
the return jump functions of its (already processed) callees available,
and the expression every observable variable has at the RETURN points
becomes its return jump function — provided all exits agree and the
expression is polynomial.

Per the paper, each return jump function is evaluated at a call site
exactly twice:

1. while generating the *caller's* return jump functions (bottom-up),
   where symbolic results — expressions over the caller's entry values —
   are kept, "in order to expose as many return jump functions as
   possible in the calling procedure";
2. while generating forward jump functions (top-down), where "any return
   jump function that cannot be evaluated as constant using
   intraprocedural information coupled with other return jump function
   values is set to ⊥" — so a result still depending on the caller's
   parameters becomes unknown.

:class:`GenerationCallSemantics` and :class:`ForwardCallSemantics`
implement those two evaluation modes for value numbering;
:class:`ReturnFunctionCallModel` implements the lattice evaluation used
by the final SCCP substitution pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro._record import FrozenRecord, setfield
from repro.analysis.expr import ConstExpr, EntryExpr, Expr, substitute
from repro.analysis.sccp import SCCPCallModel
from repro.analysis.value_numbering import CallSemantics, ValueNumbering
from repro.callgraph.callgraph import CallGraph
from repro.config import AnalysisBudget, BudgetExceeded
from repro.ir.instructions import Call, Operand, Return
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable
from repro.lattice import BOTTOM, LatticeValue, TOP, const
from repro.poly.polynomial import Polynomial, expr_to_polynomial
from repro.ipcp.resilience import BOTTOM_KIND, ResilienceReport
from repro.summary.modref import ModRefInfo


class ReturnJumpFunction(FrozenRecord):
    """``R_p^target``: the value of ``target`` after an invocation of
    ``procedure_name``, as an expression/polynomial over the procedure's
    entry values. ``support`` is the exact set of entry values used
    (§2)."""

    __slots__ = _fields = ("procedure_name", "target", "expr", "polynomial")

    def __init__(self, procedure_name: str, target: Variable, expr: Expr,
                 polynomial: Polynomial):
        setfield(self, "procedure_name", procedure_name)
        setfield(self, "target", target)
        setfield(self, "expr", expr)
        setfield(self, "polynomial", polynomial)

    @property
    def support(self) -> frozenset:
        return self.polynomial.support()

    def __repr__(self) -> str:
        return (
            f"R[{self.procedure_name}]^{self.target.name} = {self.polynomial!r}"
        )


class ReturnFunctionMap:
    """All return jump functions of a program, keyed by procedure and
    target variable. An empty map models the "No Return Jump Functions"
    configurations of Table 2."""

    def __init__(self):
        self._functions: Dict[Tuple[str, Variable], ReturnJumpFunction] = {}
        #: The same functions indexed by procedure, then target, so
        #: :meth:`functions_of` costs the procedure's own functions,
        #: not the whole map.
        self._by_procedure: Dict[str, Dict[Variable, ReturnJumpFunction]] = {}

    def add(self, function: ReturnJumpFunction) -> None:
        self._functions[(function.procedure_name, function.target)] = function
        self._by_procedure.setdefault(function.procedure_name, {})[
            function.target
        ] = function

    def lookup(self, procedure_name: str, target: Variable) -> Optional[ReturnJumpFunction]:
        return self._functions.get((procedure_name, target))

    def functions_of(self, procedure_name: str) -> List[ReturnJumpFunction]:
        """The procedure's functions in the order their targets were
        first added (an overwrite keeps its target's position)."""
        return list(self._by_procedure.get(procedure_name, {}).values())

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self):
        return iter(self._functions.values())


# ---------------------------------------------------------------------------
# Call-site binding helpers
# ---------------------------------------------------------------------------


def callee_target_for(call: Call, callee: Procedure, var: Variable) -> Optional[Variable]:
    """Which callee entry variable models the post-call value of caller
    variable ``var``: the global itself, or the unique scalar formal
    bound to ``var``. None when the binding is ambiguous — ``var``
    passed twice, or a global that is *also* passed as an actual (an
    aliasing situation FORTRAN forbids modifying through; we refuse to
    reason about it rather than trust the program is conforming)."""
    bound_formals = [
        formal
        for formal, arg in zip(callee.formals, call.args)
        if not arg.is_array and arg.bindable_var is var and formal.is_scalar
    ]
    if var.is_global:
        if bound_formals:
            return None  # dummy/global aliasing at this very site
        return var
    if len(bound_formals) == 1:
        return bound_formals[0]
    return None


def call_site_bindings(
    call: Call, callee: Procedure, numbering: ValueNumbering
) -> Dict[Variable, Expr]:
    """Map each callee entry variable to its value expression at the
    call site, in the caller's terms: formals bind to actual-argument
    expressions, globals to their entry-use expressions."""
    bindings: Dict[Variable, Expr] = {}
    for formal, arg in zip(callee.formals, call.args):
        if formal.is_scalar and not arg.is_array:
            bindings[formal] = numbering.operand_expr(arg.value)
    for use in call.entry_uses:
        bindings[use.var] = numbering.operand_expr(use)
    return bindings


# ---------------------------------------------------------------------------
# Value-numbering call semantics (the two evaluation modes)
# ---------------------------------------------------------------------------


class _ReturnFunctionSemantics(CallSemantics):
    """Shared machinery: resolve the return jump function for a call
    effect and substitute the call-site bindings into it."""

    def __init__(self, program: Program, return_map: ReturnFunctionMap):
        self.program = program
        self.return_map = return_map

    def _evaluate(self, call: Call, target: Optional[Variable],
                  numbering: ValueNumbering) -> Optional[Expr]:
        if target is None:
            return None
        callee = self.program.procedure(call.callee)
        function = self.return_map.lookup(callee.name, target)
        if function is None:
            return None
        bindings = call_site_bindings(call, callee, numbering)
        return substitute(function.expr, bindings)

    def _resolve_and_evaluate(self, call: Call, var: Variable,
                              numbering: ValueNumbering) -> Optional[Expr]:
        callee = self.program.procedure(call.callee)
        return self._evaluate(call, callee_target_for(call, callee, var), numbering)


class GenerationCallSemantics(_ReturnFunctionSemantics):
    """Bottom-up mode: symbolic results are kept so the caller's own
    return jump functions can be composed from callee effects."""

    def modified_value(self, call: Call, var: Variable, numbering: ValueNumbering):
        return self._resolve_and_evaluate(call, var, numbering)

    def result_value(self, call: Call, numbering: ValueNumbering):
        callee = self.program.procedure(call.callee)
        return self._evaluate(call, callee.result_var, numbering)


class ForwardCallSemantics(_ReturnFunctionSemantics):
    """Top-down mode: only results that evaluate to constants survive
    (§3.2's second-evaluation rule)."""

    @staticmethod
    def _constant_only(expr: Optional[Expr]) -> Optional[Expr]:
        if isinstance(expr, ConstExpr):
            return expr
        return None

    def modified_value(self, call: Call, var: Variable, numbering: ValueNumbering):
        return self._constant_only(self._resolve_and_evaluate(call, var, numbering))

    def result_value(self, call: Call, numbering: ValueNumbering):
        callee = self.program.procedure(call.callee)
        return self._constant_only(
            self._evaluate(call, callee.result_var, numbering)
        )


# ---------------------------------------------------------------------------
# SCCP call model (lattice evaluation for the substitution pass)
# ---------------------------------------------------------------------------


class ReturnFunctionCallModel(SCCPCallModel):
    """Evaluates return jump functions over the SCCP lattice: ⊥ in any
    support position is ⊥, TOP is TOP (optimistic), otherwise the
    polynomial value."""

    def __init__(self, program: Program, return_map: ReturnFunctionMap):
        self.program = program
        self.return_map = return_map

    def _binding_operand(self, call: Call, callee: Procedure,
                         entry_var: Variable) -> Optional[Operand]:
        if entry_var.is_global:
            return call.entry_use_of(entry_var)
        position = callee.formal_position(entry_var)
        if position is None or position >= len(call.args):
            return None
        arg = call.args[position]
        return None if arg.is_array else arg.value

    def _evaluate(self, call: Call, target: Optional[Variable],
                  operand_value: Callable[[Operand], LatticeValue]) -> LatticeValue:
        if target is None:
            return BOTTOM
        callee = self.program.procedure(call.callee)
        function = self.return_map.lookup(callee.name, target)
        if function is None:
            return BOTTOM
        env: Dict[Variable, int] = {}
        saw_top = False
        for entry_var in function.support:
            operand = self._binding_operand(call, callee, entry_var)
            if operand is None:
                return BOTTOM
            value = operand_value(operand)
            if value.is_bottom:
                return BOTTOM
            if value.is_top:
                saw_top = True
            else:
                env[entry_var] = value.value
        if saw_top:
            return TOP
        result = function.polynomial.evaluate(env)
        return BOTTOM if result is None else const(result)

    def modified_value(self, call: Call, var: Variable, operand_value):
        callee = self.program.procedure(call.callee)
        return self._evaluate(
            call, callee_target_for(call, callee, var), operand_value
        )

    def result_value(self, call: Call, operand_value):
        callee = self.program.procedure(call.callee)
        return self._evaluate(call, callee.result_var, operand_value)


# ---------------------------------------------------------------------------
# Construction (phase 1 of the pipeline)
# ---------------------------------------------------------------------------


def build_return_functions(
    program: Program,
    callgraph: CallGraph,
    modref: Optional[ModRefInfo] = None,
    budget: Optional[AnalysisBudget] = None,
    resilience: Optional[ResilienceReport] = None,
    fault_isolation: bool = True,
) -> ReturnFunctionMap:
    """Generate return jump functions in one bottom-up pass (§4.1).

    With MOD information, functions are built exactly for the scalars
    each procedure may modify (plus function results); without it, for
    every scalar formal and global — an unmodified variable then gets an
    *identity* return jump function, which is the only way its value can
    survive a call under worst-case kill assumptions.

    Procedures inside recursive SCCs see no return jump functions for
    their SCC siblings (conservative: those call effects stay unknown).

    With a :class:`ResilienceReport`, a procedure whose construction
    raises (under ``fault_isolation``) or whose polynomials exceed the
    ``budget`` contributes no / fewer return jump functions instead of
    aborting: a missing entry evaluates as ⊥ at every call site, which
    is always sound.
    """
    return_map = ReturnFunctionMap()
    build_return_functions_for(
        program, callgraph.bottom_up_order(), return_map, modref,
        budget=budget, resilience=resilience,
        fault_isolation=fault_isolation,
    )
    return return_map


def build_return_functions_for(
    program: Program,
    procedures,
    return_map: ReturnFunctionMap,
    modref: Optional[ModRefInfo] = None,
    budget: Optional[AnalysisBudget] = None,
    resilience: Optional[ResilienceReport] = None,
    fault_isolation: bool = True,
) -> None:
    """Build return jump functions for ``procedures`` (in the given
    order) into ``return_map``, which must already hold the functions of
    every callee outside the given set. The engine calls this per
    procedure; :func:`build_return_functions` calls it once over the
    whole bottom-up order."""
    for procedure in procedures:
        if procedure.is_main:
            continue
        try:
            _build_for_procedure(
                program, procedure, return_map, modref,
                budget=budget, resilience=resilience,
                fault_isolation=fault_isolation,
            )
        except Exception as err:  # noqa: BLE001 — fault isolation boundary
            if resilience is None or not fault_isolation:
                raise
            resilience.record(
                "return_function", procedure.name, "polynomial",
                BOTTOM_KIND, f"{type(err).__name__}: {err}",
            )


def _return_targets(procedure: Procedure, modref: Optional[ModRefInfo],
                    program: Program) -> List[Variable]:
    targets: List[Variable] = []
    if modref is not None:
        targets.extend(v for v in modref.modified_formals(procedure) if v.is_scalar)
        targets.extend(v for v in modref.modified_globals(procedure.name) if v.is_scalar)
    else:
        targets.extend(v for v in procedure.formals if v.is_scalar)
        targets.extend(program.scalar_globals())
    return targets


def _build_for_procedure(
    program: Program,
    procedure: Procedure,
    return_map: ReturnFunctionMap,
    modref: Optional[ModRefInfo],
    budget: Optional[AnalysisBudget] = None,
    resilience: Optional[ResilienceReport] = None,
    fault_isolation: bool = True,
) -> None:
    numbering = ValueNumbering(
        procedure, GenerationCallSemantics(program, return_map)
    )
    returns = [
        instruction
        for instruction in procedure.cfg.instructions()
        if isinstance(instruction, Return)
    ]
    if not returns:
        return  # The procedure never returns; its effects are unobservable.

    targets = _return_targets(procedure, modref, program)
    if procedure.result_var is not None:
        targets.append(procedure.result_var)

    for target in targets:
        try:
            exprs: List[Expr] = []
            for ret in returns:
                if target is procedure.result_var:
                    exprs.append(numbering.operand_expr(ret.value))
                else:
                    use = ret.exit_use_of(target)
                    if use is None:
                        exprs = []
                        break
                    exprs.append(numbering.operand_expr(use))
            if not exprs or any(e != exprs[0] for e in exprs):
                continue  # exits disagree: no single return jump function
            polynomial = expr_to_polynomial(exprs[0])
            if polynomial is None:
                continue  # not representable (unknowns / non-polynomial ops)
            if budget is not None:
                from repro.ipcp.jump_functions import check_polynomial_budget

                check_polynomial_budget(polynomial, budget)
        except BudgetExceeded as err:
            if resilience is None:
                raise
            resilience.record(
                "return_function", f"{procedure.name} / {target.name}",
                "polynomial", BOTTOM_KIND, str(err),
            )
            continue
        except Exception as err:  # noqa: BLE001 — fault isolation boundary
            if resilience is None or not fault_isolation:
                raise
            resilience.record(
                "return_function", f"{procedure.name} / {target.name}",
                "polynomial", BOTTOM_KIND, f"{type(err).__name__}: {err}",
            )
            continue
        return_map.add(
            ReturnJumpFunction(procedure.name, target, exprs[0], polynomial)
        )
