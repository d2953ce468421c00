"""Aggregate statistics for one analysis run.

Surfaces the quantities the paper's §3.1.5 cost discussion is about:
how many jump functions of each payload class were built, their support
sizes and evaluation costs, how many return jump functions exist, and
how much work the propagation did. The CLI's ``analyze --stats`` prints
this; the benchmarks read individual fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ipcp.driver import AnalysisResult


@dataclass
class AnalysisStatistics:
    """A flat summary of one :class:`AnalysisResult`."""

    configuration: str
    procedures: int
    call_sites: int
    forward_jump_functions: int
    payload_counts: Dict[str, int] = field(default_factory=dict)
    total_support: int = 0
    total_evaluation_cost: int = 0
    return_jump_functions: int = 0
    solver_visits: int = 0
    solver_jf_evaluations: int = 0
    solver_lowerings: int = 0
    constant_pairs: int = 0
    substituted_references: int = 0
    dce_rounds: int = 0

    def format(self) -> str:
        lines = [
            f"configuration:            {self.configuration}",
            f"procedures:               {self.procedures}",
            f"call sites:               {self.call_sites}",
            f"forward jump functions:   {self.forward_jump_functions}",
        ]
        for payload, count in sorted(self.payload_counts.items()):
            lines.append(f"  {payload:<22}  {count}")
        lines.extend(
            [
                f"total support size:       {self.total_support}",
                f"total evaluation cost:    {self.total_evaluation_cost}",
                f"return jump functions:    {self.return_jump_functions}",
                f"solver procedure visits:  {self.solver_visits}",
                f"solver JF evaluations:    {self.solver_jf_evaluations}",
                f"solver lowerings:         {self.solver_lowerings}",
                f"constant (name,value)s:   {self.constant_pairs}",
                f"substituted references:   {self.substituted_references}",
            ]
        )
        if self.dce_rounds:
            lines.append(f"DCE rounds:               {self.dce_rounds}")
        return "\n".join(lines)


def collect_statistics(result: AnalysisResult) -> AnalysisStatistics:
    """Summarize ``result``."""
    stats = AnalysisStatistics(
        configuration=result.config.describe(),
        procedures=len(result.program),
        call_sites=len(result.program.call_sites()),
        forward_jump_functions=(
            len(result.jump_table) if result.jump_table is not None else 0
        ),
        return_jump_functions=len(result.return_functions),
        constant_pairs=result.constants.total_pairs(),
        substituted_references=result.substituted_constants,
        dce_rounds=result.dce_rounds,
    )
    if result.jump_table is not None:
        stats.payload_counts = result.jump_table.payload_counts()
        stats.total_support = sum(
            len(f.support) for f in result.jump_table
        )
        stats.total_evaluation_cost = sum(
            f.cost() for f in result.jump_table
        )
    if result.propagation is not None:
        solver = result.propagation.stats
        stats.solver_visits = solver.procedure_visits
        stats.solver_jf_evaluations = solver.jump_function_evaluations
        stats.solver_lowerings = solver.lowerings
    return stats
