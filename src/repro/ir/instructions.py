"""IR instructions, operands, and definition slots.

Operands are :class:`Const` or :class:`Use`; definition sites are
:class:`Def`. ``Use.version`` / ``Def.version`` are ``None`` until SSA
construction fills them in, after which ``(variable, version)`` is a
unique SSA name (see :mod:`repro.analysis.ssa`).

Calls are the interesting case. A :class:`Call` carries, besides its
explicit actual arguments:

- ``may_define``: Defs for every scalar the call may modify — by-reference
  actuals and globals, filtered by interprocedural MOD information when it
  is available, or *all* of them under worst-case assumptions (the paper's
  Table 3 "without MOD" configuration);
- ``entry_uses``: Uses recording the value of each visible global at the
  call, which forward jump functions for globals are built from.

Both lists are filled by :func:`repro.summary.modref.annotate_call_effects`
before SSA construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.frontend.source import UNKNOWN_LOCATION, SourceLocation
from repro.ir.symbols import Variable

#: Binary operators. Comparisons and logicals produce 0/1 integers.
BINARY_OPS = (
    "+",
    "-",
    "*",
    "/",
    "mod",
    "max",
    "min",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "and",
    "or",
)

#: Unary operators.
UNARY_OPS = ("neg", "not", "abs")


class Const:
    """An integer constant operand."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __repr__(self) -> str:
        return f"Const({self.value})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))


class Use:
    """A read of a scalar variable. Mutable: SSA renaming sets ``version``
    and constant substitution may rewrite the consuming instruction.

    ``from_source`` marks uses that correspond one-to-one with a variable
    reference in the original text; the substitution metric (the study's
    effectiveness measure) counts only those.
    """

    __slots__ = ("var", "version", "location", "from_source")

    def __init__(
        self,
        var: Variable,
        location: SourceLocation = UNKNOWN_LOCATION,
        from_source: bool = False,
    ):
        self.var = var
        self.version: Optional[int] = None
        self.location = location
        self.from_source = from_source

    @property
    def ssa_name(self) -> Tuple[Variable, Optional[int]]:
        return (self.var, self.version)

    def __repr__(self) -> str:
        suffix = f".{self.version}" if self.version is not None else ""
        return f"Use({self.var.name}{suffix})"


#: An operand is a constant or a variable read.
Operand = Union[Const, Use]


class Def:
    """A write of a scalar variable (versioned after SSA construction)."""

    __slots__ = ("var", "version")

    def __init__(self, var: Variable):
        self.var = var
        self.version: Optional[int] = None

    @property
    def ssa_name(self) -> Tuple[Variable, Optional[int]]:
        return (self.var, self.version)

    def __repr__(self) -> str:
        suffix = f".{self.version}" if self.version is not None else ""
        return f"Def({self.var.name}{suffix})"


class Instruction:
    """Base class. Subclasses enumerate their operand reads via ``uses()``
    and their definitions via ``defs()``; both return the live slot
    objects so passes can mutate versions in place."""

    __slots__ = ("location",)

    def __init__(self, location: SourceLocation = UNKNOWN_LOCATION):
        self.location = location

    def uses(self) -> List[Use]:
        return [op for op in self.operands() if isinstance(op, Use)]

    def operands(self) -> List[Operand]:
        """All value operands, in a stable order."""
        return []

    def defs(self) -> List[Def]:
        return []

    def replace_operand(self, old: Use, new: Operand) -> None:
        """Substitute operand ``old`` (by identity) with ``new``."""
        raise NotImplementedError

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Jump, CondBranch, Return, Halt))


def _replace_in_list(items: List[Operand], old: Use, new: Operand) -> bool:
    for index, item in enumerate(items):
        if item is old:
            items[index] = new
            return True
    return False


class Assign(Instruction):
    """``target = source`` (copy or constant load)."""

    __slots__ = ("target", "source")

    def __init__(self, target: Def, source: Operand, location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.target = target
        self.source = source

    def operands(self) -> List[Operand]:
        return [self.source]

    def defs(self) -> List[Def]:
        return [self.target]

    def replace_operand(self, old: Use, new: Operand) -> None:
        if self.source is old:
            self.source = new


class BinOp(Instruction):
    """``target = left op right``."""

    __slots__ = ("target", "op", "left", "right")

    def __init__(
        self, target: Def, op: str, left: Operand, right: Operand,
        location=UNKNOWN_LOCATION,
    ):
        super().__init__(location)
        assert op in BINARY_OPS, op
        self.target = target
        self.op = op
        self.left = left
        self.right = right

    def operands(self) -> List[Operand]:
        return [self.left, self.right]

    def defs(self) -> List[Def]:
        return [self.target]

    def replace_operand(self, old: Use, new: Operand) -> None:
        if self.left is old:
            self.left = new
        if self.right is old:
            self.right = new


class UnOp(Instruction):
    """``target = op operand``."""

    __slots__ = ("target", "op", "operand")

    def __init__(self, target: Def, op: str, operand: Operand, location=UNKNOWN_LOCATION):
        super().__init__(location)
        assert op in UNARY_OPS, op
        self.target = target
        self.op = op
        self.operand = operand

    def operands(self) -> List[Operand]:
        return [self.operand]

    def defs(self) -> List[Def]:
        return [self.target]

    def replace_operand(self, old: Use, new: Operand) -> None:
        if self.operand is old:
            self.operand = new


class ArrayLoad(Instruction):
    """``target = array(indices...)``. Array contents are not tracked by
    the constant propagator (paper §4 limitation 2), so the loaded value
    is always unknown — but indices are ordinary operands and may be
    substituted."""

    __slots__ = ("target", "array", "indices")

    def __init__(self, target: Def, array: Variable, indices: List[Operand],
                 location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.target = target
        self.array = array
        self.indices = list(indices)

    def operands(self) -> List[Operand]:
        return list(self.indices)

    def defs(self) -> List[Def]:
        return [self.target]

    def replace_operand(self, old: Use, new: Operand) -> None:
        _replace_in_list(self.indices, old, new)


class ArrayStore(Instruction):
    """``array(indices...) = value``."""

    __slots__ = ("array", "indices", "value")

    def __init__(self, array: Variable, indices: List[Operand], value: Operand,
                 location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.array = array
        self.indices = list(indices)
        self.value = value

    def operands(self) -> List[Operand]:
        return list(self.indices) + [self.value]

    def replace_operand(self, old: Use, new: Operand) -> None:
        if not _replace_in_list(self.indices, old, new) and self.value is old:
            self.value = new


class CallArg:
    """One actual argument at a call site.

    ``value`` is the operand (Const or Use) for scalar actuals; ``array``
    is set instead when a whole array is passed. A scalar actual is
    *bindable* (the callee can modify it through its reference formal)
    exactly when it is a Use of a non-temporary scalar.
    """

    __slots__ = ("value", "array", "location")

    def __init__(self, value: Optional[Operand] = None,
                 array: Optional[Variable] = None,
                 location: SourceLocation = UNKNOWN_LOCATION):
        assert (value is None) != (array is None)
        self.value = value
        self.array = array
        self.location = location

    @property
    def is_array(self) -> bool:
        return self.array is not None

    @property
    def bindable_var(self) -> Optional[Variable]:
        """The caller variable a reference formal would alias, if any."""
        if isinstance(self.value, Use) and not self.value.var.is_temp:
            return self.value.var
        return None

    def __repr__(self) -> str:
        if self.is_array:
            return f"CallArg(array={self.array.name})"
        return f"CallArg({self.value!r})"


class Call(Instruction):
    """``[result =] CALL callee(args...)`` with explicit side-effect slots.

    ``may_define`` and ``entry_uses`` are populated by the call-effect
    annotation pass; SSA renaming treats ``entry_uses`` as reads occurring
    at the call and ``may_define`` as writes it performs.
    """

    __slots__ = ("callee", "args", "result", "may_define", "entry_uses")

    def __init__(self, callee: str, args: List[CallArg],
                 result: Optional[Def] = None, location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.callee = callee
        self.args = list(args)
        self.result = result
        # Empty until call-effect annotation assigns lists.
        self.may_define: Sequence[Def] = ()
        self.entry_uses: Sequence[Use] = ()

    def operands(self) -> List[Operand]:
        ops: List[Operand] = [a.value for a in self.args if a.value is not None]
        ops.extend(self.entry_uses)
        return ops

    def defs(self) -> List[Def]:
        result = list(self.may_define)
        if self.result is not None:
            result.append(self.result)
        return result

    def replace_operand(self, old: Use, new: Operand) -> None:
        for arg in self.args:
            if arg.value is old:
                arg.value = new
                return
        # entry_uses exist only to observe values; they are never
        # rewritten to constants.

    def defined_var_def(self, var: Variable) -> Optional[Def]:
        """The Def slot for ``var`` in may_define, if present."""
        for d in self.may_define:
            if d.var is var:
                return d
        return None

    def entry_use_of(self, var: Variable) -> Optional[Use]:
        for use in self.entry_uses:
            if use.var is var:
                return use
        return None


class Read(Instruction):
    """``READ *, targets`` — each target receives an unknowable value."""

    __slots__ = ("targets",)

    def __init__(self, targets: List[Def], location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.targets = list(targets)

    def defs(self) -> List[Def]:
        return list(self.targets)

    def replace_operand(self, old: Use, new: Operand) -> None:
        pass


class Print(Instruction):
    """``PRINT *, items`` — items are operands or literal strings."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Union[Operand, str]], location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.items: List[Union[Operand, str]] = list(items)

    def operands(self) -> List[Operand]:
        return [item for item in self.items if not isinstance(item, str)]

    def replace_operand(self, old: Use, new: Operand) -> None:
        for index, item in enumerate(self.items):
            if item is old:
                self.items[index] = new
                return


class Jump(Instruction):
    """Unconditional branch."""

    __slots__ = ("target",)

    def __init__(self, target: "BasicBlock", location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.target = target

    def replace_operand(self, old: Use, new: Operand) -> None:
        pass


class CondBranch(Instruction):
    """Branch on ``cond != 0``."""

    __slots__ = ("cond", "if_true", "if_false")

    def __init__(self, cond: Operand, if_true: "BasicBlock", if_false: "BasicBlock",
                 location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.cond = cond
        self.if_true = if_true
        self.if_false = if_false

    def operands(self) -> List[Operand]:
        return [self.cond]

    def replace_operand(self, old: Use, new: Operand) -> None:
        if self.cond is old:
            self.cond = new


class Return(Instruction):
    """Return to caller; ``value`` is set for INTEGER FUNCTIONs.

    ``exit_uses`` — one Use per scalar formal/global, observing the value
    each has when control returns — is populated by the call-effect
    annotation pass. Return jump functions are built from the
    value-numbering expressions of these uses. They participate in SSA
    renaming and keep stores to observable storage alive through DCE, but
    they are not substitution targets.
    """

    __slots__ = ("value", "exit_uses")

    def __init__(self, value: Optional[Operand] = None, location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.value = value
        self.exit_uses: Sequence[Use] = ()  # until annotation assigns one

    def operands(self) -> List[Operand]:
        ops: List[Operand] = [] if self.value is None else [self.value]
        ops.extend(self.exit_uses)
        return ops

    def replace_operand(self, old: Use, new: Operand) -> None:
        if self.value is old:
            self.value = new

    def exit_use_of(self, var: Variable) -> Optional[Use]:
        for use in self.exit_uses:
            if use.var is var:
                return use
        return None


class Halt(Instruction):
    """``STOP`` — program termination."""

    __slots__ = ()

    def replace_operand(self, old: Use, new: Operand) -> None:
        pass


class Phi(Instruction):
    """SSA phi: ``target = phi(block -> operand, ...)``."""

    __slots__ = ("target", "incoming")

    def __init__(self, target: Def, incoming: Dict["BasicBlock", Operand],
                 location=UNKNOWN_LOCATION):
        super().__init__(location)
        self.target = target
        self.incoming = dict(incoming)

    def operands(self) -> List[Operand]:
        return list(self.incoming.values())

    def defs(self) -> List[Def]:
        return [self.target]

    def replace_operand(self, old: Use, new: Operand) -> None:
        for block, operand in self.incoming.items():
            if operand is old:
                self.incoming[block] = new
                return
