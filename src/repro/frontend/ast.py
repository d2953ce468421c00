"""Abstract syntax tree for MiniFortran.

The tree is deliberately small: one node class per construct, each
carrying a :class:`SourceLocation`. Lowering to the IR
(:mod:`repro.ir.lowering`) consumes this tree; nothing else mutates it,
which is what lets an engine keep parsed units across requests
(:mod:`repro.frontend.unit_memo`).

Nodes are plain ``__slots__`` classes with hand-written ``__init__``s:
no per-node ``__dict__`` (a retained tree is a third smaller) and no
class bodies generated at import, which a dataclass pays on every cold
start. Each class lists its constructor fields in ``_fields``; equality
and ``repr`` compare and print those, as dataclasses did.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple, Union

from repro.frontend.source import SourceLocation


class Node:
    """Base of every node: value equality and a ``repr`` over
    ``_fields``. Like a non-frozen dataclass, a node is unhashable."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self._fields
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expression nodes."""

    __slots__ = ("location",)
    _fields = ("location",)

    def __init__(self, location: SourceLocation):
        self.location = location


class IntLiteral(Expr):
    """An integer literal such as ``42``."""

    __slots__ = ("value",)
    _fields = ("location", "value")

    def __init__(self, location: SourceLocation, value: int):
        self.location = location
        self.value = value


class VarRef(Expr):
    """A reference to a scalar variable (or a whole array, as an actual
    argument)."""

    __slots__ = ("name",)
    _fields = ("location", "name")

    def __init__(self, location: SourceLocation, name: str):
        self.location = location
        self.name = name


class ArrayRef(Expr):
    """A subscripted array reference ``A(I, J)``."""

    __slots__ = ("name", "indices")
    _fields = ("location", "name", "indices")

    def __init__(self, location: SourceLocation, name: str,
                 indices: List[Expr]):
        self.location = location
        self.name = name
        self.indices = indices


class FunctionCall(Expr):
    """A call to an INTEGER FUNCTION appearing inside an expression."""

    __slots__ = ("name", "args")
    _fields = ("location", "name", "args")

    def __init__(self, location: SourceLocation, name: str,
                 args: List[Expr]):
        self.location = location
        self.name = name
        self.args = args


class UnaryOp(Expr):
    """Unary minus or ``.NOT.``; ``op`` is ``'-'`` or ``'not'``."""

    __slots__ = ("op", "operand")
    _fields = ("location", "op", "operand")

    def __init__(self, location: SourceLocation, op: str, operand: Expr):
        self.location = location
        self.op = op
        self.operand = operand


class _Binary(Expr):
    """The shape the three binary node kinds share; none is an instance
    of another."""

    __slots__ = ("op", "left", "right")
    _fields = ("location", "op", "left", "right")

    def __init__(self, location: SourceLocation, op: str, left: Expr,
                 right: Expr):
        self.location = location
        self.op = op
        self.left = left
        self.right = right


class BinaryOp(_Binary):
    """Integer arithmetic; ``op`` is one of ``+ - * /``."""

    __slots__ = ()


class Compare(_Binary):
    """A relational comparison; ``op`` is ``eq ne lt le gt ge``."""

    __slots__ = ()


class LogicalOp(_Binary):
    """``.AND.`` / ``.OR.``; ``op`` is ``'and'`` or ``'or'``."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statement nodes; ``label`` is the numeric statement
    label when one is present in the label field."""

    __slots__ = ("location", "label")
    _fields = ("location", "label")

    def __init__(self, location: SourceLocation,
                 label: Optional[int] = None):
        self.location = location
        self.label = label


class Assign(Stmt):
    """``target = value`` where target is a VarRef or ArrayRef."""

    __slots__ = ("target", "value")
    _fields = ("location", "label", "target", "value")

    def __init__(self, location: SourceLocation, label: Optional[int] = None,
                 target: Union[VarRef, ArrayRef] = None, value: Expr = None):
        self.location = location
        self.label = label
        self.target = target
        self.value = value


class CallStmt(Stmt):
    """``CALL name(args)``."""

    __slots__ = ("name", "args")
    _fields = ("location", "label", "name", "args")

    def __init__(self, location: SourceLocation, label: Optional[int] = None,
                 name: str = "", args: Optional[List[Expr]] = None):
        self.location = location
        self.label = label
        self.name = name
        self.args = [] if args is None else args


class IfStmt(Stmt):
    """Block IF with optional ELSEIF arms and ELSE body.

    A logical IF (``IF (cond) stmt``) parses to an IfStmt whose then-body
    holds the single statement.
    """

    __slots__ = ("cond", "then_body", "elifs", "else_body")
    _fields = ("location", "label", "cond", "then_body", "elifs",
               "else_body")

    def __init__(
        self,
        location: SourceLocation,
        label: Optional[int] = None,
        cond: Expr = None,
        then_body: Optional[List[Stmt]] = None,
        elifs: Optional[List[Tuple[Expr, List[Stmt]]]] = None,
        else_body: Optional[List[Stmt]] = None,
    ):
        self.location = location
        self.label = label
        self.cond = cond
        self.then_body = [] if then_body is None else then_body
        self.elifs = [] if elifs is None else elifs
        self.else_body = [] if else_body is None else else_body


class DoStmt(Stmt):
    """``DO var = start, stop [, step]`` ... ``ENDDO``.

    ``step`` must be an integer-literal expression (possibly negated);
    this restriction keeps the loop lowering direction-deterministic and
    is checked during lowering.
    """

    __slots__ = ("var", "start", "stop", "step", "body")
    _fields = ("location", "label", "var", "start", "stop", "step", "body")

    def __init__(
        self,
        location: SourceLocation,
        label: Optional[int] = None,
        var: str = "",
        start: Expr = None,
        stop: Expr = None,
        step: Optional[Expr] = None,
        body: Optional[List[Stmt]] = None,
    ):
        self.location = location
        self.label = label
        self.var = var
        self.start = start
        self.stop = stop
        self.step = step
        self.body = [] if body is None else body


class DoWhileStmt(Stmt):
    """``DO WHILE (cond)`` ... ``ENDDO``."""

    __slots__ = ("cond", "body")
    _fields = ("location", "label", "cond", "body")

    def __init__(self, location: SourceLocation, label: Optional[int] = None,
                 cond: Expr = None, body: Optional[List[Stmt]] = None):
        self.location = location
        self.label = label
        self.cond = cond
        self.body = [] if body is None else body


class GotoStmt(Stmt):
    """``GOTO label``."""

    __slots__ = ("target",)
    _fields = ("location", "label", "target")

    def __init__(self, location: SourceLocation, label: Optional[int] = None,
                 target: int = 0):
        self.location = location
        self.label = label
        self.target = target


class ContinueStmt(Stmt):
    """``CONTINUE`` — a no-op, typically a GOTO target."""

    __slots__ = ()


class ReturnStmt(Stmt):
    """``RETURN``."""

    __slots__ = ()


class StopStmt(Stmt):
    """``STOP`` — terminate the program."""

    __slots__ = ()


class ReadStmt(Stmt):
    """``READ *, targets`` — assigns run-time (unknowable) values."""

    __slots__ = ("targets",)
    _fields = ("location", "label", "targets")

    def __init__(self, location: SourceLocation, label: Optional[int] = None,
                 targets: Optional[List[Union[VarRef, ArrayRef]]] = None):
        self.location = location
        self.label = label
        self.targets = [] if targets is None else targets


class PrintStmt(Stmt):
    """``PRINT *, items`` (WRITE is accepted as a synonym); items are
    expressions or string literals."""

    __slots__ = ("items",)
    _fields = ("location", "label", "items")

    def __init__(self, location: SourceLocation, label: Optional[int] = None,
                 items: Optional[List[Union[Expr, str]]] = None):
        self.location = location
        self.label = label
        self.items = [] if items is None else items


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class Decl(Node):
    """Base class for specification statements."""

    __slots__ = ("location",)
    _fields = ("location",)

    def __init__(self, location: SourceLocation):
        self.location = location


class DeclItem(Node):
    """One name in a declaration list, with optional array dimensions."""

    __slots__ = ("name", "dims")
    _fields = ("name", "dims")

    def __init__(self, name: str, dims: Optional[List[int]] = None):
        self.name = name
        self.dims = dims

    @property
    def is_array(self) -> bool:
        return self.dims is not None


class _ItemsDecl(Decl):
    """A declaration listing :class:`DeclItem` s."""

    __slots__ = ("items",)
    _fields = ("location", "items")

    def __init__(self, location: SourceLocation,
                 items: Optional[List[DeclItem]] = None):
        self.location = location
        self.items = [] if items is None else items


class IntegerDecl(_ItemsDecl):
    """``INTEGER a, b(10), c`` — type (and possibly shape) declarations."""

    __slots__ = ()


class DimensionDecl(_ItemsDecl):
    """``DIMENSION a(10)`` — shape declarations."""

    __slots__ = ()


class CommonDecl(Decl):
    """``COMMON /block/ a, b(5)`` — global storage declaration."""

    __slots__ = ("block", "items")
    _fields = ("location", "block", "items")

    def __init__(self, location: SourceLocation, block: str = "",
                 items: Optional[List[DeclItem]] = None):
        self.location = location
        self.block = block
        self.items = [] if items is None else items


class _BindingsDecl(Decl):
    """A declaration pairing names with values."""

    __slots__ = ("bindings",)
    _fields = ("location", "bindings")

    def __init__(self, location: SourceLocation,
                 bindings: Optional[list] = None):
        self.location = location
        self.bindings = [] if bindings is None else bindings


class ParameterDecl(_BindingsDecl):
    """``PARAMETER (n = 10, m = n * 2)`` — named compile-time constants;
    ``bindings`` pairs each name with its expression."""

    __slots__ = ()


class ExternalDecl(Decl):
    """``EXTERNAL f, g`` — the named procedures are defined in another
    program unit (possibly another file). Within a single-file analysis
    an external callee is modeled conservatively (a call clobbers every
    by-reference argument and every visible global); the linkage layer
    (:mod:`repro.linkage`) resolves the names against the whole
    program's symbol table instead."""

    __slots__ = ("names",)
    _fields = ("location", "names")

    def __init__(self, location: SourceLocation,
                 names: Optional[List[str]] = None):
        self.location = location
        self.names = [] if names is None else names


class DataDecl(_BindingsDecl):
    """``DATA a, b /1, 2/`` — static initial values. MiniFortran allows
    DATA only inside BLOCK DATA units, initializing scalar COMMON
    members (the FORTRAN idiom interprocedural constant propagation
    cares about: compile-time-known global configuration).
    ``bindings`` pairs each name with its integer value."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Program units
# ---------------------------------------------------------------------------


class ProcedureKind(enum.Enum):
    """The three kinds of program unit."""

    PROGRAM = "program"
    SUBROUTINE = "subroutine"
    FUNCTION = "function"
    BLOCK_DATA = "block_data"


class ProcedureUnit(Node):
    """One program unit: PROGRAM, SUBROUTINE, or INTEGER FUNCTION.

    ``is_stub`` marks a unit whose body could not be parsed during
    error recovery: only the header survived. Lowering replaces a stub
    body with a single maximally conservative statement (every scalar
    the unit could touch is treated as assigned an unknown value), so
    the rest of the module still analyzes soundly.

    ``derived`` is not part of the tree (equality and ``repr`` ignore
    it): a consumer that keeps the unit across parses may store there
    a value it derived from the unit — the engine keeps the source
    location digest of the procedure lowered from it, so an edit
    computes digests only for the units it re-parsed.
    """

    _fields = ("kind", "name", "params", "decls", "body", "location",
               "is_stub")
    __slots__ = _fields + ("derived",)

    def __init__(
        self,
        kind: ProcedureKind,
        name: str,
        params: List[str],
        decls: List[Decl],
        body: List[Stmt],
        location: SourceLocation,
        is_stub: bool = False,
    ):
        self.kind = kind
        self.name = name
        self.params = params
        self.decls = decls
        self.body = body
        self.location = location
        self.is_stub = is_stub
        self.derived = None


class Module(Node):
    """A whole source file: a list of program units."""

    __slots__ = ("units", "filename")
    _fields = __slots__

    def __init__(self, units: List[ProcedureUnit],
                 filename: str = "<string>"):
        self.units = units
        self.filename = filename

    def unit(self, name: str) -> ProcedureUnit:
        """Look up a unit by (case-insensitive) name."""
        lowered = name.lower()
        for unit in self.units:
            if unit.name == lowered:
                return unit
        raise KeyError(name)


def walk_statements(body: List[Stmt]):
    """Yield every statement in ``body``, recursing into compound bodies."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, IfStmt):
            yield from walk_statements(stmt.then_body)
            for _, arm in stmt.elifs:
                yield from walk_statements(arm)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, (DoStmt, DoWhileStmt)):
            yield from walk_statements(stmt.body)


def walk_expressions(expr: Expr):
    """Yield ``expr`` and every sub-expression."""
    yield expr
    if isinstance(expr, _Binary):
        yield from walk_expressions(expr.left)
        yield from walk_expressions(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expressions(expr.operand)
    elif isinstance(expr, (FunctionCall, ArrayRef)):
        children = expr.args if isinstance(expr, FunctionCall) else expr.indices
        for child in children:
            yield from walk_expressions(child)
