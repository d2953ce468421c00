"""Serialization of per-procedure analysis summaries.

The on-disk cache stores summaries as plain JSON-able payloads; this
module defines the codecs. The encoding must be *identity-free*:
:class:`~repro.ir.symbols.Variable` objects compare by identity and
carry process-local uids, so every variable is encoded as a structural
reference —

- ``["f", procedure, index]`` — the ``index``-th formal of ``procedure``;
- ``["g", block, name]`` — a global in COMMON block ``block``;
- ``["r", procedure]`` — the function result variable;

— and resolved back against the *decoder's* program object, which is
guaranteed isomorphic (same source, same lowering) even in another
process or a later run. Expressions are encoded as their literal trees
(return jump functions never contain unknowns — they are
polynomial-convertible by construction), so decoded expressions are
structurally equal to the originals and the exit-agreement checks
behave identically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.expr import ConstExpr, EntryExpr, Expr, OpExpr
from repro.config import JumpFunctionKind
from repro.frontend.source import SourceLocation
from repro.ipcp.constants import ConstantsResult
from repro.ipcp.jump_functions import ForwardJumpFunction, JumpFunctionTable
from repro.ipcp.resilience import Demotion, ResilienceReport
from repro.ipcp.return_functions import ReturnFunctionMap, ReturnJumpFunction
from repro.ipcp.solver import entry_domain
from repro.ipcp.substitution import SubstitutionReport, SubstitutionSite
from repro.ir.instructions import Call, Use
from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable
from repro.lattice import BOTTOM, TOP, LatticeValue, const
from repro.poly.polynomial import Monomial, Polynomial, _sorted_monomial


def _json_key(value) -> str:
    import json

    return json.dumps(value)


# -- variable references -----------------------------------------------------


def encode_varref(var: Variable, procedure: Procedure) -> list:
    if var.is_global:
        return ["g", var.common_block, var.name]
    if procedure.result_var is not None and var is procedure.result_var:
        return ["r", procedure.name]
    position = procedure.formal_position(var)
    if position is None:
        raise ValueError(
            f"variable {var.name!r} of {procedure.name} is not encodable "
            f"(not a formal, global, or result)"
        )
    return ["f", procedure.name, position]


def resolve_varref(ref: list, program: Program) -> Variable:
    tag = ref[0]
    if tag == "g":
        variable = program.commons[ref[1]].member(ref[2])
        if variable is None:
            raise ValueError(f"unknown global {ref!r}")
        return variable
    if tag == "r":
        result_var = program.procedure(ref[1]).result_var
        if result_var is None:
            raise ValueError(f"procedure {ref[1]!r} has no result variable")
        return result_var
    if tag == "f":
        return program.procedure(ref[1]).formals[ref[2]]
    raise ValueError(f"unknown varref tag {ref!r}")


# -- expressions and polynomials ---------------------------------------------


def encode_expr(expr: Expr, procedure: Procedure) -> list:
    if isinstance(expr, ConstExpr):
        return ["c", expr.value]
    if isinstance(expr, EntryExpr):
        return ["e", encode_varref(expr.var, procedure)]
    if isinstance(expr, OpExpr):
        return ["o", expr.op, [encode_expr(a, procedure) for a in expr.args]]
    raise ValueError(f"expression {expr!r} is not serializable")


def decode_expr(data: list, program: Program) -> Expr:
    tag = data[0]
    if tag == "c":
        return ConstExpr(data[1])
    if tag == "e":
        return EntryExpr(resolve_varref(data[1], program))
    if tag == "o":
        # Rebuild verbatim (no smart-constructor re-canonicalization):
        # the encoded tree is already canonical, and structural equality
        # with parent-built expressions must be preserved exactly.
        return OpExpr(data[1], tuple(decode_expr(a, program) for a in data[2]))
    raise ValueError(f"unknown expr tag {data!r}")


def encode_polynomial(poly: Polynomial, procedure: Procedure) -> list:
    terms = []
    for monomial, coefficient in poly.terms.items():
        terms.append(
            [
                coefficient,
                [[encode_varref(var, procedure), power]
                 for var, power in monomial],
            ]
        )
    # json text as the sort key: a total, deterministic order over the
    # heterogeneous nested lists (tuple comparison would raise on
    # mixed-type positions).
    terms.sort(key=_json_key)
    return terms


def decode_polynomial(data: list, program: Program) -> Polynomial:
    terms: Dict[Monomial, int] = {}
    for coefficient, pairs in data:
        monomial = _sorted_monomial(
            (resolve_varref(ref, program), power) for ref, power in pairs
        )
        terms[monomial] = coefficient
    return Polynomial(terms)


# -- return jump functions ---------------------------------------------------


def encode_return_function(fn: ReturnJumpFunction, program: Program) -> dict:
    procedure = program.procedure(fn.procedure_name)
    return {
        "p": fn.procedure_name,
        "t": encode_varref(fn.target, procedure),
        "e": encode_expr(fn.expr, procedure),
        "poly": encode_polynomial(fn.polynomial, procedure),
    }


def decode_return_function(data: dict, program: Program) -> ReturnJumpFunction:
    return ReturnJumpFunction(
        procedure_name=data["p"],
        target=resolve_varref(data["t"], program),
        expr=decode_expr(data["e"], program),
        polynomial=decode_polynomial(data["poly"], program),
    )


def encode_return_functions_of(
    return_map: ReturnFunctionMap, procedure_name: str, program: Program
) -> List[dict]:
    return [
        encode_return_function(fn, program)
        for fn in return_map.functions_of(procedure_name)
    ]


# -- forward jump functions --------------------------------------------------


def encode_forward_function(
    fn: ForwardJumpFunction, caller: Procedure, call_index: int,
    program: Program,
) -> dict:
    callee = program.procedure(fn.call.callee)
    target_owner = callee if not fn.target.is_global else caller
    data: dict = {
        "call": [caller.name, call_index],
        "k": fn.kind.value,
        "t": encode_varref(fn.target, target_owner),
    }
    if fn.constant is not None:
        data["c"] = fn.constant
    if fn.source_var is not None:
        data["s"] = encode_varref(fn.source_var, caller)
    if fn.polynomial is not None:
        data["poly"] = encode_polynomial(fn.polynomial, caller)
    return data


def decode_forward_function(
    data: dict, program: Program, calls: List[Call]
) -> ForwardJumpFunction:
    """Decode one function of the caller whose ``call_sites()`` are
    ``calls`` (every function of one caller shares that list, so its
    caller builds it once)."""
    fn = ForwardJumpFunction(
        kind=JumpFunctionKind(data["k"]),
        call=calls[data["call"][1]],
        target=resolve_varref(data["t"], program),
    )
    if "c" in data:
        fn.constant = data["c"]
    if "s" in data:
        fn.source_var = resolve_varref(data["s"], program)
    if "poly" in data:
        fn.polynomial = decode_polynomial(data["poly"], program)
    return fn


def encode_forward_functions_of(
    table: JumpFunctionTable, procedure: Procedure, program: Program
) -> List[dict]:
    """Encode the functions of every call site in ``procedure``, in call
    order then table insertion order (the construction order)."""
    encoded = []
    for index, call in enumerate(procedure.call_sites()):
        for fn in table.for_call(call):
            encoded.append(
                encode_forward_function(fn, procedure, index, program)
            )
    return encoded


# -- CONSTANTS (VAL sets) ----------------------------------------------------


def encode_constants(constants: ConstantsResult, program: Program) -> dict:
    """Encode the full VAL map in entry-domain order per procedure."""
    encoded: Dict[str, list] = {}
    for procedure in program:
        cells = []
        for var in entry_domain(procedure, program):
            value = constants.val_of(procedure.name, var)
            if value.is_constant:
                cells.append(["c", value.value])
            elif value.is_top:
                cells.append(["t"])
            else:
                cells.append(["b"])
        encoded[procedure.name] = cells
    return encoded


def decode_constants(data: dict, program: Program) -> ConstantsResult:
    val: Dict[str, Dict[Variable, LatticeValue]] = {}
    for procedure in program:
        cells: Dict[Variable, LatticeValue] = {}
        encoded = data.get(procedure.name, [])
        for var, cell in zip(entry_domain(procedure, program), encoded):
            if cell[0] == "c":
                cells[var] = const(cell[1])
            elif cell[0] == "t":
                cells[var] = TOP
            else:
                cells[var] = BOTTOM
        val[procedure.name] = cells
    return ConstantsResult(val)


# -- substitution sites ------------------------------------------------------


def encode_substitution_of(
    report: SubstitutionReport, procedure_name: str, first_site: int = 0
) -> dict:
    """Encode one procedure's count and sites. ``first_site`` skips the
    sites recorded before the procedure was measured."""
    sites = []
    for site in report.sites[first_site:]:
        if site.procedure_name != procedure_name:
            continue
        location = site.location
        sites.append(
            [
                site.use.var.name,
                site.use.version,
                [location.filename, location.line, location.column],
                site.value,
            ]
        )
    return {"n": report.per_procedure.get(procedure_name, 0), "sites": sites}


def decode_substitution_into(
    data: dict, procedure: Procedure, report: SubstitutionReport
) -> None:
    report.per_procedure[procedure.name] = data["n"]
    for name, version, (filename, line, column), value in data["sites"]:
        var = procedure.symbols.lookup(name)
        if var is None:
            raise ValueError(
                f"unknown variable {name!r} in {procedure.name}"
            )
        use = Use(var, SourceLocation(filename, line, column), from_source=True)
        use.version = version
        report.sites.append(SubstitutionSite(procedure.name, use, value))


# -- demotions ---------------------------------------------------------------


def encode_demotions(demotions: Iterable[Demotion]) -> List[list]:
    """Encode demotions (a :class:`ResilienceReport` or a slice of its
    ``demotions``)."""
    return [
        [d.component, d.site, d.from_kind, d.to_kind, d.reason]
        for d in demotions
    ]


def apply_demotions(data: List[list], resilience: Optional[ResilienceReport]) -> None:
    if resilience is None:
        return
    for component, site, from_kind, to_kind, reason in data:
        resilience.record(component, site, from_kind, to_kind, reason)

