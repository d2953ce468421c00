"""SSA-based global value numbering producing symbolic expressions.

For every SSA name in a procedure this pass computes a context-
independent :class:`~repro.analysis.expr.Expr` giving its value in terms
of the procedure's *entry values* (formals and globals) and opaque
unknowns. All four forward jump functions, the return jump functions,
and ``gcp(y, s)`` (the paper's intraprocedural constant oracle, §3.1) are
read off these expressions.

Call instructions are interpreted through a :class:`CallSemantics`
object: the IPCP layer supplies one backed by return jump functions; the
default treats every call effect as unknown (the worst-case assumption
the paper describes for the no-MOD configuration's inner analysis).

The pass is a single forward walk in reverse postorder. Phi nodes merge
pessimistically: a phi whose incoming expressions are all available and
structurally equal takes that expression (this is how value numbering
proves that both arms of a branch compute the same value); anything else
— including loop-carried inputs not yet computed — becomes an unknown
tagged by the phi's SSA name, so copies of it still compare equal.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.expr import (
    ConstExpr,
    EntryExpr,
    Expr,
    UnknownExpr,
    make_binop,
    make_unop,
)
from repro.ir.cfg import BasicBlock
from repro.ir.instructions import (
    ArrayLoad,
    Assign,
    BinOp,
    Call,
    Const,
    Operand,
    Phi,
    Read,
    UnOp,
    Use,
)
from repro.ir.module import Procedure
from repro.ir.symbols import Variable, VarKind

SSAName = Tuple[Variable, int]


class CallSemantics:
    """How value numbering interprets the effects of a call.

    The default implementation knows nothing: every value a call may
    write, and every function result, is unknown. The IPCP layer
    overrides both hooks with return-jump-function evaluation.
    """

    def modified_value(
        self, call: Call, var: Variable, numbering: "ValueNumbering"
    ) -> Optional[Expr]:
        """Value of caller variable ``var`` after ``call`` (``var`` is in
        ``call.may_define``); None means unknown."""
        return None

    def result_value(self, call: Call, numbering: "ValueNumbering") -> Optional[Expr]:
        """Value returned by a function call; None means unknown."""
        return None


class ValueNumbering:
    """Expressions for every SSA name of one procedure."""

    def __init__(self, procedure: Procedure, call_semantics: Optional[CallSemantics] = None):
        self.procedure = procedure
        self.call_semantics = call_semantics or CallSemantics()
        self._table: Dict[SSAName, Expr] = {}
        self._run()

    # -- public queries ------------------------------------------------------

    def ssa_expr(self, var: Variable, version: Optional[int]) -> Expr:
        """The expression for SSA name ``(var, version)``."""
        if version is None or version == 0:
            return self._entry_expr(var)
        existing = self._table.get((var, version))
        if existing is not None:
            return existing
        # Not yet computed (a loop-carried reference): opaque but stable.
        return UnknownExpr(("ssa", var.order, version))

    def operand_expr(self, operand: Operand) -> Expr:
        """The expression for an instruction operand."""
        if isinstance(operand, Const):
            return ConstExpr(operand.value)
        return self.ssa_expr(operand.var, operand.version)

    def constant_of(self, operand: Operand) -> Optional[int]:
        """The integer value of ``operand`` when value numbering proves it
        constant — the paper's ``gcp`` oracle for one operand."""
        expr = self.operand_expr(operand)
        if isinstance(expr, ConstExpr):
            return expr.value
        return None

    # -- construction -------------------------------------------------------------

    def _entry_expr(self, var: Variable) -> Expr:
        if var.kind in (VarKind.FORMAL, VarKind.GLOBAL):
            return EntryExpr(var)
        # Locals (and the function result) are undefined on entry.
        return UnknownExpr(("undef", var.order))

    def _run(self) -> None:
        for block in self.procedure.cfg.reverse_postorder():
            for phi in block.phis():
                self._visit_phi(phi)
            for instruction in block.non_phi_instructions():
                self._visit(instruction)

    def _set(self, var: Variable, version: int, expr: Expr) -> None:
        self._table[(var, version)] = expr

    def _opaque(self, var: Variable, version: int) -> Expr:
        return UnknownExpr(("ssa", var.order, version))

    def _visit_phi(self, phi: Phi) -> None:
        target = phi.target
        exprs = []
        available = True
        for operand in phi.incoming.values():
            if isinstance(operand, Const):
                exprs.append(ConstExpr(operand.value))
                continue
            name = (operand.var, operand.version)
            if operand.version in (None, 0):
                exprs.append(self._entry_expr(operand.var))
            elif name in self._table:
                exprs.append(self._table[name])
            else:
                available = False
                break
        if available and exprs and all(e == exprs[0] for e in exprs):
            self._set(target.var, target.version, exprs[0])
        else:
            self._set(target.var, target.version, self._opaque(target.var, target.version))

    def _visit(self, instruction) -> None:
        if isinstance(instruction, Assign):
            target = instruction.target
            self._set(target.var, target.version, self.operand_expr(instruction.source))
        elif isinstance(instruction, BinOp):
            target = instruction.target
            expr = make_binop(
                instruction.op,
                self.operand_expr(instruction.left),
                self.operand_expr(instruction.right),
            )
            self._set(target.var, target.version, expr)
        elif isinstance(instruction, UnOp):
            target = instruction.target
            expr = make_unop(instruction.op, self.operand_expr(instruction.operand))
            self._set(target.var, target.version, expr)
        elif isinstance(instruction, ArrayLoad):
            target = instruction.target
            # Array contents are never tracked (paper §4, limitation 2).
            self._set(target.var, target.version, self._opaque(target.var, target.version))
        elif isinstance(instruction, Read):
            for target in instruction.targets:
                self._set(target.var, target.version, self._opaque(target.var, target.version))
        elif isinstance(instruction, Call):
            self._visit_call(instruction)
        # Stores, prints, and terminators define nothing.

    def _visit_call(self, call: Call) -> None:
        for definition in call.may_define:
            expr = self.call_semantics.modified_value(call, definition.var, self)
            if expr is None:
                expr = self._opaque(definition.var, definition.version)
            self._set(definition.var, definition.version, expr)
        if call.result is not None:
            expr = self.call_semantics.result_value(call, self)
            if expr is None:
                expr = self._opaque(call.result.var, call.result.version)
            self._set(call.result.var, call.result.version, expr)


def number_values(
    procedure: Procedure, call_semantics: Optional[CallSemantics] = None
) -> ValueNumbering:
    """Convenience constructor matching the other analysis entry points."""
    return ValueNumbering(procedure, call_semantics)
