"""Recording the results: constant substitution and the effectiveness
metric (§4.1 "Recording the results").

After propagation, each procedure is re-analyzed by SCCP with its entry
values seeded from ``CONSTANTS(p)``; every *source-level reference* to a
scalar variable whose value is proven constant is a substitution site.
The per-program count of such references is the number the study's
Tables 2 and 3 report — the Metzger–Stroud measure, which "relates more
directly to code improvement [and] factors out procedure length and
modularity" (known-but-unreferenced constants do not count).

The module also implements the optional transformed-source output: "the
analyzer can produce a transformed version of the original source in
which the interprocedural constants are textually substituted into the
code".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro._record import Record
from repro.analysis.sccp import (
    SCCPCallModel,
    SCCPResult,
    modified_actual_uses,
    run_sccp,
)
from repro.frontend.source import SourceFile
from repro.ipcp.constants import ConstantsResult
from repro.ir.instructions import Const, Phi, Use
from repro.ir.module import Procedure, Program


class SubstitutionSite(Record):
    """One source reference replaced by a constant."""

    __slots__ = _fields = ("procedure_name", "use", "value")

    def __init__(self, procedure_name: str, use: Use, value: int):
        self.procedure_name = procedure_name
        self.use = use
        self.value = value

    @property
    def location(self):
        return self.use.location


class SubstitutionReport(Record):
    """Substitution counts for one analysis configuration."""

    __slots__ = _fields = ("per_procedure", "sites", "sccp_results")

    def __init__(
        self,
        per_procedure: Optional[Dict[str, int]] = None,
        sites: Optional[List[SubstitutionSite]] = None,
        sccp_results: Optional[Dict[str, SCCPResult]] = None,
    ):
        self.per_procedure = per_procedure if per_procedure is not None else {}
        self.sites = sites if sites is not None else []
        self.sccp_results = sccp_results if sccp_results is not None else {}

    @property
    def total(self) -> int:
        """The Table 2 / Table 3 cell: constants substituted into the
        program."""
        return sum(self.per_procedure.values())

    def count_for(self, procedure_name: str) -> int:
        return self.per_procedure.get(procedure_name, 0)


def measure_substitution(
    program: Program,
    constants: ConstantsResult,
    call_model: Optional[SCCPCallModel] = None,
    budget=None,
    resilience=None,
    fault_isolation: bool = True,
) -> SubstitutionReport:
    """Run the substitution SCCP per procedure and count constant
    source references. Non-mutating.

    With a ``resilience`` report, a procedure whose substitution SCCP
    exceeds ``budget.sccp_visits`` (or raises, under
    ``fault_isolation``) simply contributes zero substitutions — an
    under-count, never a wrong count.
    """
    report = SubstitutionReport()
    call_model = call_model or SCCPCallModel()
    for procedure in program:
        measure_substitution_for(
            procedure, constants, call_model, report,
            budget=budget, resilience=resilience,
            fault_isolation=fault_isolation,
        )
    return report


def measure_substitution_for(
    procedure: Procedure,
    constants: ConstantsResult,
    call_model: SCCPCallModel,
    report: SubstitutionReport,
    budget=None,
    resilience=None,
    fault_isolation: bool = True,
) -> None:
    """Measure one procedure's substitutions into ``report``.

    Independent across procedures (SCCP is per-procedure with entry
    values from CONSTANTS), which is what lets the engine fan the
    measurement out.
    """
    from repro.config import BudgetExceeded

    max_visits = budget.sccp_visits if budget is not None else None
    entry = constants.entry_lattice(procedure)
    try:
        result = run_sccp(procedure, entry, call_model, max_visits)
    except BudgetExceeded as err:
        if resilience is None:
            raise
        resilience.record(
            "substitution", procedure.name, "sccp", "skipped", str(err)
        )
        report.per_procedure[procedure.name] = 0
        return
    except Exception as err:  # noqa: BLE001 — fault isolation boundary
        if resilience is None or not fault_isolation:
            raise
        resilience.record(
            "substitution", procedure.name, "sccp", "skipped",
            f"{type(err).__name__}: {err}",
        )
        report.per_procedure[procedure.name] = 0
        return
    report.sccp_results[procedure.name] = result
    uses = result.constant_source_references()
    report.per_procedure[procedure.name] = len(uses)
    for use in uses:
        value = result.operand_value(use)
        report.sites.append(
            SubstitutionSite(procedure.name, use, value.value)
        )


def apply_substitution(program: Program, report: SubstitutionReport) -> int:
    """Rewrite every constant-valued operand (source-level or temporary)
    to a literal Const, in executable code. Mutates the IR; returns the
    number of operands rewritten. Used by complete propagation so that
    dead-code elimination can see the folded branches and unused
    definitions."""
    rewritten = 0
    for procedure in program:
        result = report.sccp_results.get(procedure.name)
        if result is None:
            continue
        for block in procedure.cfg.blocks:
            if block not in result.executable_blocks:
                continue
            for instruction in block.instructions:
                if isinstance(instruction, Phi):
                    continue
                skip = modified_actual_uses(instruction)
                for use in list(instruction.uses()):
                    if use in skip:
                        # A by-reference actual the callee may write:
                        # replacing it with a literal would sever the
                        # writeback.
                        continue
                    value = result.operand_value(use)
                    if value.is_constant:
                        instruction.replace_operand(use, Const(value.value))
                        rewritten += 1
    return rewritten


def render_transformed_source(source: SourceFile, report: SubstitutionReport) -> str:
    """Textually substitute the discovered constants into the original
    source, returning the transformed program text."""
    lines = source.lines
    # Replace right-to-left within each line so columns stay valid.
    per_line: Dict[int, List[Tuple[int, str, int]]] = {}
    for site in report.sites:
        location = site.location
        if location.filename != source.name or location.line <= 0:
            continue
        per_line.setdefault(location.line, []).append(
            (location.column, site.use.var.name, site.value)
        )
    for line_number, replacements in per_line.items():
        text = lines[line_number - 1]
        for column, name, value in sorted(replacements, reverse=True):
            start = column - 1
            end = start + len(name)
            if text[start:end].lower() != name:
                continue  # stale location (source drifted); skip safely
            text = text[:start] + str(value) + text[end:]
        lines[line_number - 1] = text
    return "\n".join(lines) + "\n"
