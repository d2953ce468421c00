"""Context-independent symbolic value expressions.

Value numbering (:mod:`repro.analysis.value_numbering`) computes one
:class:`Expr` per SSA name; jump functions are extracted from these
expressions. The representation mirrors the paper's "expression tree ...
converted into a context-independent representation" (§4.1): leaves are
integer constants, *entry values* of the procedure's parameters/globals,
or opaque unknowns; interior nodes are the integer operators.

Smart constructors (:func:`make_binop`, :func:`make_unop`) fold
constants, apply simple algebraic identities, and canonicalize
commutative operand order, so structural equality of Expr objects is a
useful (conservative) value-equality test.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Tuple

from repro.ir.symbols import Variable

_COMMUTATIVE = {"+", "*", "max", "min", "eq", "ne", "and", "or"}


class Expr:
    """Base class: immutable, hashable symbolic expressions."""

    __slots__ = ()

    def support(self) -> frozenset:
        """The entry variables this expression's value depends on."""
        raise NotImplementedError

    def is_constant(self) -> bool:
        return isinstance(self, ConstExpr)

    def has_unknown(self) -> bool:
        """True when any leaf is an opaque unknown."""
        raise NotImplementedError

    def evaluate(self, env: Dict[Variable, int]) -> Optional[int]:
        """Evaluate under ``env`` (entry variable -> value); None when the
        expression contains unknowns or an unmapped entry variable, or the
        evaluation is undefined (division by zero)."""
        raise NotImplementedError


class ConstExpr(Expr):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def support(self) -> frozenset:
        return frozenset()

    def has_unknown(self) -> bool:
        return False

    def evaluate(self, env: Dict[Variable, int]) -> Optional[int]:
        return self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstExpr) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("c", self.value))

    def __repr__(self) -> str:
        return str(self.value)


class EntryExpr(Expr):
    """The value of a formal parameter or global on entry to the current
    procedure — the unknowns jump functions are expressed over."""

    __slots__ = ("var",)

    def __init__(self, var: Variable):
        self.var = var

    def support(self) -> frozenset:
        return frozenset((self.var,))

    def has_unknown(self) -> bool:
        return False

    def evaluate(self, env: Dict[Variable, int]) -> Optional[int]:
        return env.get(self.var)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EntryExpr) and other.var is self.var

    def __hash__(self) -> int:
        return hash(("entry", self.var))

    def __repr__(self) -> str:
        return f"entry({self.var.name})"


class UnknownExpr(Expr):
    """An opaque run-time value (READ input, array element, unanalyzable
    call effect, undefined variable). Two unknowns are the same value iff
    they carry the same tag — value numbering tags each source of
    unknownness once, so copies of one unknown still compare equal."""

    __slots__ = ("tag",)

    _tags = itertools.count()

    def __init__(self, tag: Optional[int] = None):
        self.tag = next(UnknownExpr._tags) if tag is None else tag

    def support(self) -> frozenset:
        return frozenset()

    def has_unknown(self) -> bool:
        return True

    def evaluate(self, env: Dict[Variable, int]) -> Optional[int]:
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnknownExpr) and other.tag == self.tag

    def __hash__(self) -> int:
        return hash(("u", self.tag))

    def __repr__(self) -> str:
        return f"unknown#{self.tag}"


class OpExpr(Expr):
    """An operator applied to sub-expressions."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: Tuple[Expr, ...]):
        self.op = op
        self.args = args

    def support(self) -> frozenset:
        result: frozenset = frozenset()
        for arg in self.args:
            result |= arg.support()
        return result

    def has_unknown(self) -> bool:
        return any(arg.has_unknown() for arg in self.args)

    def evaluate(self, env: Dict[Variable, int]) -> Optional[int]:
        values = []
        for arg in self.args:
            value = arg.evaluate(env)
            if value is None:
                return None
            values.append(value)
        return fold_operator(self.op, values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OpExpr)
            and other.op == self.op
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("op", self.op, self.args))

    def __repr__(self) -> str:
        return f"({self.op} {' '.join(map(repr, self.args))})"


def fold_operator(op: str, values) -> Optional[int]:
    """Evaluate operator ``op`` over concrete integers.

    Comparisons/logicals yield 0/1; division and MOD follow FORTRAN
    (truncation toward zero); division by zero yields None.
    """
    if op == "+":
        return values[0] + values[1]
    if op == "-":
        return values[0] - values[1]
    if op == "*":
        return values[0] * values[1]
    if op == "/":
        a, b = values
        if b == 0:
            return None
        quotient = abs(a) // abs(b)
        return quotient if (a >= 0) == (b >= 0) else -quotient
    if op == "mod":
        a, b = values
        if b == 0:
            return None
        remainder = abs(a) % abs(b)
        return remainder if a >= 0 else -remainder
    if op == "max":
        return max(values)
    if op == "min":
        return min(values)
    if op == "eq":
        return int(values[0] == values[1])
    if op == "ne":
        return int(values[0] != values[1])
    if op == "lt":
        return int(values[0] < values[1])
    if op == "le":
        return int(values[0] <= values[1])
    if op == "gt":
        return int(values[0] > values[1])
    if op == "ge":
        return int(values[0] >= values[1])
    if op == "and":
        return int(bool(values[0]) and bool(values[1]))
    if op == "or":
        return int(bool(values[0]) or bool(values[1]))
    if op == "neg":
        return -values[0]
    if op == "not":
        return int(not values[0])
    if op == "abs":
        return abs(values[0])
    raise ValueError(f"unknown operator {op!r}")


def _sort_key(expr: Expr):
    if isinstance(expr, ConstExpr):
        return (0, expr.value, "")
    if isinstance(expr, EntryExpr):
        return (1, expr.var.order, expr.var.name)
    if isinstance(expr, UnknownExpr):
        return (2, expr.tag, "")
    return (3, 0, repr(expr))


def make_binop(op: str, left: Expr, right: Expr) -> Expr:
    """Build ``left op right`` with folding and canonicalization."""
    if isinstance(left, ConstExpr) and isinstance(right, ConstExpr):
        folded = fold_operator(op, [left.value, right.value])
        if folded is not None:
            return ConstExpr(folded)
        return UnknownExpr()  # e.g. constant division by zero
    # Algebraic identities that preserve FORTRAN integer semantics.
    if op == "+":
        if isinstance(left, ConstExpr) and left.value == 0:
            return right
        if isinstance(right, ConstExpr) and right.value == 0:
            return left
    elif op == "-":
        if isinstance(right, ConstExpr) and right.value == 0:
            return left
        if left == right and not left.has_unknown():
            return ConstExpr(0)
    elif op == "*":
        for a, b in ((left, right), (right, left)):
            if isinstance(a, ConstExpr):
                if a.value == 0:
                    return ConstExpr(0)
                if a.value == 1:
                    return b
    elif op == "/":
        if isinstance(right, ConstExpr) and right.value == 1:
            return left
    if op in _COMMUTATIVE:
        ordered = tuple(sorted((left, right), key=_sort_key))
        return OpExpr(op, ordered)
    return OpExpr(op, (left, right))


def make_unop(op: str, operand: Expr) -> Expr:
    """Build ``op operand`` with constant folding."""
    if isinstance(operand, ConstExpr):
        folded = fold_operator(op, [operand.value])
        if folded is not None:
            return ConstExpr(folded)
    if op == "neg" and isinstance(operand, OpExpr) and operand.op == "neg":
        return operand.args[0]
    return OpExpr(op, (operand,))


def rewrite_leaves(expr: Expr, rewrite) -> Expr:
    """Rebuild ``expr`` with every leaf passed through ``rewrite`` (a
    function Expr -> Expr returning the leaf unchanged when it has
    nothing to say). Interior nodes are re-canonicalized bottom-up."""
    if isinstance(expr, OpExpr):
        new_args = tuple(rewrite_leaves(arg, rewrite) for arg in expr.args)
        if new_args == expr.args:
            return expr
        if len(new_args) == 1:
            return make_unop(expr.op, new_args[0])
        return make_binop(expr.op, new_args[0], new_args[1])
    return rewrite(expr)


def substitute(expr: Expr, bindings: Dict[Variable, Expr]) -> Expr:
    """Replace entry leaves by the expressions in ``bindings``.

    Entry variables missing from ``bindings`` are left in place. The
    result is re-canonicalized bottom-up, so substituting constants
    folds.
    """
    if isinstance(expr, EntryExpr):
        return bindings.get(expr.var, expr)
    if isinstance(expr, OpExpr):
        new_args = tuple(substitute(arg, bindings) for arg in expr.args)
        if new_args == expr.args:
            return expr
        if len(new_args) == 1:
            return make_unop(expr.op, new_args[0])
        return make_binop(expr.op, new_args[0], new_args[1])
    return expr
