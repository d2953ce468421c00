"""Whole-program containers: procedures, COMMON blocks, and the Program.

A :class:`Program` owns every :class:`Procedure` plus the shared global
:class:`~repro.ir.symbols.Variable` objects that COMMON blocks introduce.
Interprocedural passes (call graph, MOD, IPCP) all operate on a
Program.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro._record import Record
from repro.frontend.ast import ProcedureKind
from repro.frontend.source import SourceFile
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import Call
from repro.ir.symbols import SymbolTable, Variable, VarKind


class CommonBlock(Record):
    """A named COMMON block: an ordered list of shared global variables.

    The first declaration of a block fixes its member names and shapes;
    every later declaration must match (MiniFortran does not support
    renaming COMMON storage positionally across procedures — see
    DESIGN.md). ``declarer`` is the index, in its module, of the unit
    that makes that first declaration, where lowering creates the
    members.
    """

    __slots__ = _fields = ("name", "declarer", "members")

    def __init__(self, name: str, declarer: int,
                 members: Optional[List[Variable]] = None):
        self.name = name
        self.declarer = declarer
        self.members = members if members is not None else []

    def member(self, name: str) -> Optional[Variable]:
        for variable in self.members:
            if variable.name == name:
                return variable
        return None


class Procedure:
    """One lowered program unit: CFG + symbol table + interface."""

    __slots__ = ("name", "kind", "formals", "cfg", "symbols", "result_var",
                 "visible_globals")

    def __init__(
        self,
        name: str,
        kind: ProcedureKind,
        formals: List[Variable],
        cfg: ControlFlowGraph,
        symbols: SymbolTable,
        result_var: Optional[Variable] = None,
    ):
        self.name = name
        self.kind = kind
        self.formals = formals
        self.cfg = cfg
        self.symbols = symbols
        #: For INTEGER FUNCTIONs, the variable holding the return value.
        self.result_var = result_var
        #: Globals referenced or modified anywhere in this procedure
        #: (members of COMMON blocks the procedure declares).
        self.visible_globals: List[Variable] = []

    @property
    def is_function(self) -> bool:
        return self.kind is ProcedureKind.FUNCTION

    @property
    def is_main(self) -> bool:
        return self.kind is ProcedureKind.PROGRAM

    def formal_position(self, variable: Variable) -> Optional[int]:
        """Index of ``variable`` in the formal list, or None."""
        for index, formal in enumerate(self.formals):
            if formal is variable:
                return index
        return None

    def call_sites(self) -> List[Call]:
        """Every call instruction in this procedure, in block order."""
        return [i for i in self.cfg.instructions() if isinstance(i, Call)]

    def entry_names(self) -> List[Variable]:
        """The variables whose entry values interprocedural propagation
        tracks for this procedure: scalar formals plus visible scalar
        globals (the paper's extended notion of "parameter")."""
        names = [v for v in self.formals if v.is_scalar]
        names.extend(v for v in self.visible_globals if v.is_scalar)
        return names

    def __repr__(self) -> str:
        return f"Procedure({self.name}, {self.kind.value})"


class Program:
    """A whole lowered program."""

    def __init__(self, source: Optional[SourceFile] = None):
        self.procedures: Dict[str, Procedure] = {}
        self.commons: Dict[str, CommonBlock] = {}
        self.main: Optional[Procedure] = None
        self.source = source
        #: Static initial values of scalar globals (from BLOCK DATA /
        #: DATA statements); globals not listed start undefined.
        self.global_initial_values: Dict[Variable, int] = {}
        #: On an engine's path, each parse memo entry with the
        #: :class:`~repro.ir.kept.KeptLowering` of its procedure
        #: (see :func:`~repro.ir.lowering.lower_module`); else empty.
        self.lowerings: list = []

    def add_procedure(self, procedure: Procedure) -> None:
        self.procedures[procedure.name] = procedure
        if procedure.is_main:
            self.main = procedure

    def procedure(self, name: str) -> Procedure:
        return self.procedures[name.lower()]

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self.procedures.values())

    def __len__(self) -> int:
        return len(self.procedures)

    def global_variables(self) -> List[Variable]:
        """All COMMON members across all blocks, in declaration order."""
        result: List[Variable] = []
        for block in self.commons.values():
            result.extend(block.members)
        return result

    def scalar_globals(self) -> List[Variable]:
        return [v for v in self.global_variables() if v.is_scalar]

    def call_sites(self) -> List[Call]:
        sites: List[Call] = []
        for procedure in self:
            sites.extend(procedure.call_sites())
        return sites
