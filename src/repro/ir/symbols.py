"""Variables and per-procedure symbol tables.

A :class:`Variable` is an identity object (compared by ``is``): globals in
COMMON storage are represented by a *single* Variable shared by every
procedure that declares the block, which is what lets interprocedural
analyses treat them uniformly with formal parameters (the paper extends
"parameter" to include global variables, §2 footnote 1).
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


#: Bits of a lowered variable's order that number it within its unit.
_SEQUENCE_BITS = 32
#: Orders of variables created after lowering start here, above every
#: lowered variable's.
_CREATED_LATER = 1 << 62


def unit_orders(unit_index: int) -> Iterator[int]:
    """The orders, in turn, of the variables lowering creates for the
    ``unit_index``-th unit of a module: after every earlier unit's and
    before every later unit's, as a lowering of the whole module
    creates them."""
    return itertools.count(unit_index << _SEQUENCE_BITS)


class VarKind(enum.Enum):
    """What storage a variable names."""

    FORMAL = "formal"  # formal parameter (call-by-reference)
    LOCAL = "local"  # procedure-local scalar or array
    GLOBAL = "global"  # member of a COMMON block
    TEMP = "temp"  # compiler temporary introduced by lowering
    RESULT = "result"  # the function-name variable holding the result


class Variable:
    """A named storage location. Identity semantics: two Variables are the
    same variable iff they are the same object.

    ``order`` is its hash, and orders variables wherever analyses sort
    them (monomials, commutative operands, opaque values). Lowering
    stamps each variable it creates, and a kept COMMON member where a
    cold lowering would create it, with its place in a lowering of the
    whole module (:func:`unit_orders`), before any set or dict holds
    it; so a unit lowered again beside kept lowerings orders its
    variables as a cold lowering does. A variable created later takes
    the next number of a process-wide counter, above every lowered
    variable's. No two variables of one program share an order.

    Slotted: programs allocate one Variable per SSA version, so the
    per-instance ``__dict__`` would dominate IR memory.
    """

    __slots__ = ("name", "kind", "is_array", "dims", "common_block", "order")

    _later = itertools.count(_CREATED_LATER)

    def __init__(
        self,
        name: str,
        kind: VarKind,
        is_array: bool = False,
        dims: Optional[Tuple[int, ...]] = None,
        common_block: Optional[str] = None,
    ):
        self.name = name
        self.kind = kind
        self.is_array = is_array
        self.dims = dims
        self.common_block = common_block
        self.order = next(Variable._later)

    @property
    def is_temp(self) -> bool:
        return self.kind is VarKind.TEMP

    @property
    def is_global(self) -> bool:
        return self.kind is VarKind.GLOBAL

    @property
    def is_scalar(self) -> bool:
        return not self.is_array

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, {self.kind.value})"

    def __hash__(self) -> int:
        return self.order


class SymbolTable:
    """Maps source names to :class:`Variable` objects inside one procedure.

    Globals resolve to the Program-wide Variable for their COMMON slot;
    everything else is procedure-local. Temporaries get fresh names
    ``%t0, %t1, ...`` and never enter the name map.
    """

    __slots__ = ("procedure_name", "_by_name", "_temps")

    def __init__(self, procedure_name: str):
        self.procedure_name = procedure_name
        self._by_name: Dict[str, Variable] = {}
        self._temps = 0

    def declare(self, variable: Variable) -> Variable:
        """Register ``variable`` under its name; returns it for chaining."""
        self._by_name[variable.name] = variable
        return variable

    def lookup(self, name: str) -> Optional[Variable]:
        """The Variable bound to ``name``, or None if not yet declared."""
        return self._by_name.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def new_temp(self) -> Variable:
        """Create a fresh compiler temporary."""
        self._temps += 1
        return Variable(f"%t{self._temps - 1}", VarKind.TEMP)

    def variables(self) -> List[Variable]:
        """All named variables, in declaration order."""
        return list(self._by_name.values())

    def formals(self) -> List[Variable]:
        return [v for v in self._by_name.values() if v.kind is VarKind.FORMAL]

    def globals(self) -> List[Variable]:
        return [v for v in self._by_name.values() if v.kind is VarKind.GLOBAL]

    def scalars(self) -> Iterable[Variable]:
        return (v for v in self._by_name.values() if v.is_scalar)
