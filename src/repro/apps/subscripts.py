"""Array-subscript linearity — the Shen–Li–Yew motivation study.

For each array reference inside a loop, decide whether its subscript is
*linear* (affine) in the loop's induction variables with compile-time-
constant coefficients — the form classical dependence tests require. A
subscript like ``A(N*I + J)`` is nonlinear while ``N`` is unknown, and
becomes linear the moment interprocedural constant propagation proves
``N`` constant. Running the classification once with an empty constant
environment and once with CONSTANTS(p) reproduces the study's finding
that interprocedural constants linearize a large fraction of the
subscripts dependence analyzers would otherwise give up on.

Method: the value-numbering expression of each subscript operand is
rewritten so induction variables become symbolic leaves, converted to a
polynomial over {entry values} ∪ {induction variables}, partially
evaluated under the known constants, and then checked monomial-wise —
every monomial mentioning an induction variable must be exactly that
variable to the first power with an integer coefficient (IV-free
monomials are loop-invariant offsets and are always acceptable).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.expr import EntryExpr, Expr, UnknownExpr, rewrite_leaves
from repro.analysis.loops import NaturalLoop, analyze_loops
from repro.analysis.ssa import ssa_definitions
from repro.analysis.value_numbering import ValueNumbering
from repro.ipcp.constants import ConstantsResult
from repro.ipcp.return_functions import ForwardCallSemantics, ReturnFunctionMap
from repro.ir.instructions import ArrayLoad, ArrayStore
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable, VarKind
from repro.poly.polynomial import Polynomial, expr_to_polynomial


class SubscriptClass(enum.Enum):
    """Classification of one subscript expression."""

    LINEAR = "linear"
    NONLINEAR = "nonlinear"


@dataclass
class SubscriptInfo:
    """One classified subscript."""

    procedure_name: str
    array: Variable
    loop: NaturalLoop
    classification: SubscriptClass
    polynomial: Optional[Polynomial] = None

    @property
    def is_linear(self) -> bool:
        return self.classification is SubscriptClass.LINEAR


@dataclass
class SubscriptStudy:
    """Aggregate results of one classification pass."""

    subscripts: List[SubscriptInfo] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.subscripts)

    @property
    def linear(self) -> int:
        return sum(1 for s in self.subscripts if s.is_linear)

    @property
    def nonlinear(self) -> int:
        return self.total - self.linear

    def linear_fraction(self) -> float:
        return self.linear / self.total if self.total else 1.0


def classify_subscripts(
    program: Program,
    constants: Optional[ConstantsResult] = None,
    return_map: Optional[ReturnFunctionMap] = None,
) -> SubscriptStudy:
    """Classify every in-loop array subscript of ``program``.

    ``constants`` supplies the interprocedural constant environment per
    procedure (None = the no-IPCP baseline); ``program`` must already be
    in SSA form (post ``prepare_program``).
    """
    return_map = return_map or ReturnFunctionMap()
    study = SubscriptStudy()
    for procedure in program:
        study.subscripts.extend(
            _classify_procedure(program, procedure, constants, return_map)
        )
    return study


def _classify_procedure(
    program: Program,
    procedure: Procedure,
    constants: Optional[ConstantsResult],
    return_map: ReturnFunctionMap,
) -> List[SubscriptInfo]:
    loops = analyze_loops(procedure)
    if not loops:
        return []
    numbering = ValueNumbering(
        procedure, ForwardCallSemantics(program, return_map)
    )
    definitions = ssa_definitions(procedure)
    block_of = {}
    for block in procedure.cfg.blocks:
        for instruction in block.instructions:
            block_of[id(instruction)] = block

    # Opaque value-numbering tags -> defining blocks (to decide whether
    # an unknown value is invariant with respect to a given loop).
    tag_blocks: Dict[object, object] = {}
    for (var, version), instruction in definitions.items():
        tag_blocks[("ssa", var.order, version)] = block_of[id(instruction)]

    # Induction-variable phis -> fresh symbolic leaf variables.
    iv_leaves: Dict[object, Variable] = {}
    for loop in loops:
        for iv in loop.induction_variables:
            var, version = iv.ssa_name
            tag = ("ssa", var.order, version)
            if tag not in iv_leaves:
                iv_leaves[tag] = Variable(f"{var.name}$iv", VarKind.FORMAL)
    iv_var_set = set(iv_leaves.values())

    env: Dict[Variable, int] = {}
    if constants is not None:
        env = dict(constants.constants_of(procedure.name).items())

    invariant_leaves: Dict[object, Variable] = {}

    def rewriter_for(loop: NaturalLoop):
        def rewrite(leaf: Expr) -> Expr:
            if not isinstance(leaf, UnknownExpr):
                return leaf
            if leaf.tag in iv_leaves:
                return EntryExpr(iv_leaves[leaf.tag])
            # Unknown but loop-invariant values (defined outside the
            # loop, undefined locals, opaque entries) act as symbolic
            # offsets: they do not break affinity.
            defining_block = tag_blocks.get(leaf.tag)
            invariant = (
                defining_block is None or defining_block not in loop.blocks
            )
            if invariant:
                leaf_var = invariant_leaves.get(leaf.tag)
                if leaf_var is None:
                    leaf_var = Variable(f"$inv{len(invariant_leaves)}", VarKind.FORMAL)
                    invariant_leaves[leaf.tag] = leaf_var
                return EntryExpr(leaf_var)
            return leaf

        return rewrite

    results: List[SubscriptInfo] = []
    for loop in loops:
        rewrite = rewriter_for(loop)
        for block in loop.blocks:
            # Only attribute each subscript to its innermost loop: skip
            # blocks that belong to a smaller loop too.
            if any(
                other is not loop and block in other.blocks and
                len(other.blocks) < len(loop.blocks)
                for other in loops
            ):
                continue
            for instruction in block.instructions:
                if not isinstance(instruction, (ArrayLoad, ArrayStore)):
                    continue
                for index_operand in instruction.indices:
                    expr = rewrite_leaves(
                        numbering.operand_expr(index_operand), rewrite
                    )
                    info = _classify_expr(
                        expr, env, iv_var_set, procedure, instruction, loop
                    )
                    results.append(info)
    return results


def _classify_expr(
    expr: Expr,
    env: Dict[Variable, int],
    iv_vars,
    procedure: Procedure,
    instruction,
    loop: NaturalLoop,
) -> SubscriptInfo:
    polynomial = expr_to_polynomial(expr)
    classification = SubscriptClass.NONLINEAR
    reduced = None
    if polynomial is not None:
        reduced = polynomial.partial_evaluate(env)
        classification = (
            SubscriptClass.LINEAR
            if _is_affine_in(reduced, iv_vars)
            else SubscriptClass.NONLINEAR
        )
    return SubscriptInfo(
        procedure_name=procedure.name,
        array=instruction.array,
        loop=loop,
        classification=classification,
        polynomial=reduced,
    )


def _is_affine_in(polynomial: Polynomial, iv_vars) -> bool:
    """Every monomial mentioning an induction variable must be exactly
    one IV to the first power (integer coefficient); IV-free monomials
    are loop-invariant offsets and always fine."""
    for monomial in polynomial.terms:
        involved = [pair for pair in monomial if pair[0] in iv_vars]
        if not involved:
            continue
        if len(monomial) != 1:
            return False  # IV multiplied by something else
        _var, exponent = monomial[0]
        if exponent != 1:
            return False
    return True
