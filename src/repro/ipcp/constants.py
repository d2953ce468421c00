"""The CONSTANTS sets — the product of interprocedural propagation.

``CONSTANTS(p)`` is the set of (name, value) pairs such that the name —
a formal parameter or global — always holds that integer value when
``p`` is invoked (§2). This module wraps the solver's VAL sets with the
queries the substitution pass and the reports need.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.ir.module import Procedure, Program
from repro.ir.symbols import Variable
from repro.lattice import BOTTOM, LatticeValue, TOP


class ConstantsResult:
    """Per-procedure VAL sets plus CONSTANTS extraction."""

    def __init__(self, val: Dict[str, Dict[Variable, LatticeValue]]):
        self._val = val

    def val_of(self, procedure_name: str, var: Variable) -> LatticeValue:
        return self._val.get(procedure_name, {}).get(var, BOTTOM)

    def val_set(self, procedure_name: str) -> Dict[Variable, LatticeValue]:
        return dict(self._val.get(procedure_name, {}))

    def constants_of(self, procedure_name: str) -> Dict[Variable, int]:
        """``CONSTANTS(p)`` as a name->value mapping."""
        return {
            var: value.value
            for var, value in self._val.get(procedure_name, {}).items()
            if value.is_constant
        }

    def entry_lattice(self, procedure: Procedure) -> Dict[Variable, LatticeValue]:
        """Entry values for the substitution SCCP run: discovered
        constants stay constants; everything else — including TOP, which
        only survives on never-invoked procedures — degrades to ⊥ (we
        refuse to exploit unreachability of a whole procedure)."""
        result: Dict[Variable, LatticeValue] = {}
        for var, value in self._val.get(procedure.name, {}).items():
            result[var] = value if value.is_constant else BOTTOM
        return result

    def total_pairs(self) -> int:
        """Total number of (procedure, name, value) constant pairs."""
        return sum(
            1
            for per_proc in self._val.values()
            for value in per_proc.values()
            if value.is_constant
        )

    def procedures_with_constants(self) -> List[str]:
        return [
            name
            for name, per_proc in self._val.items()
            if any(v.is_constant for v in per_proc.values())
        ]

    def items(self) -> Iterator[Tuple[str, Variable, LatticeValue]]:
        for name, per_proc in self._val.items():
            for var, value in per_proc.items():
                yield name, var, value

    def format_report(self) -> str:
        """Human-readable CONSTANTS listing (the file the analyzer
        writes in §4.1 "Recording the results")."""
        lines: List[str] = []
        for name in sorted(self._val):
            constants = self.constants_of(name)
            if not constants:
                continue
            pairs = ", ".join(
                f"{var.name}={value}"
                for var, value in sorted(
                    constants.items(), key=lambda item: item[0].name
                )
            )
            lines.append(f"CONSTANTS({name}) = {{{pairs}}}")
        return "\n".join(lines) if lines else "(no interprocedural constants)"


def empty_constants(program: Program) -> ConstantsResult:
    """A ConstantsResult with every entry ⊥ — the intraprocedural-only
    baseline's view of entry values."""
    return ConstantsResult({procedure.name: {} for procedure in program})
