"""Multivariate polynomials with integer coefficients.

The polynomial parameter jump function represents an actual parameter as
a polynomial over the *entry values* of the calling procedure's formals
and globals (paper §3.1.4); return jump functions use the same
representation over the callee's entry values (§3.2). Variables are
:class:`repro.ir.symbols.Variable` objects.

A polynomial is a mapping ``monomial -> coefficient`` where a monomial is
a sorted tuple of ``(variable, exponent)`` pairs; the empty monomial is
the constant term. The representation is canonical: zero coefficients are
dropped, exponents are >= 1, and variables within a monomial are sorted,
so ``==`` is mathematical equality.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.analysis.expr import ConstExpr, EntryExpr, Expr, OpExpr, UnknownExpr
from repro.ir.symbols import Variable

Monomial = Tuple[Tuple[Variable, int], ...]

_CONST_MONOMIAL: Monomial = ()


def _sorted_monomial(pairs: Iterable[Tuple[Variable, int]]) -> Monomial:
    return tuple(sorted(pairs, key=lambda pair: (pair[0].order, pair[0].name)))


class Polynomial:
    """An immutable multivariate polynomial over Variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        cleaned: Dict[Monomial, int] = {}
        if terms:
            for monomial, coefficient in terms.items():
                if coefficient != 0:
                    cleaned[monomial] = coefficient
        self._terms = cleaned

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        if value == 0:
            return cls()
        return cls({_CONST_MONOMIAL: value})

    @classmethod
    def variable(cls, var: Variable) -> "Polynomial":
        return cls({((var, 1),): 1})

    # -- queries ------------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (
            len(self._terms) == 1 and _CONST_MONOMIAL in self._terms
        )

    def constant_value(self) -> Optional[int]:
        """The constant this polynomial denotes, or None if non-constant."""
        if self.is_zero():
            return 0
        if self.is_constant():
            return self._terms[_CONST_MONOMIAL]
        return None

    def support(self) -> frozenset:
        """Exactly the variables with a nonzero occurrence — the jump
        function's *support* set (paper §2)."""
        result = set()
        for monomial in self._terms:
            for variable, _exp in monomial:
                result.add(variable)
        return frozenset(result)

    def degree(self) -> int:
        best = 0
        for monomial in self._terms:
            best = max(best, sum(exp for _v, exp in monomial))
        return best

    def is_single_variable_identity(self) -> Optional[Variable]:
        """If this polynomial is exactly ``1 * v``, return ``v`` — the
        pass-through pattern."""
        if len(self._terms) != 1:
            return None
        (monomial, coefficient), = self._terms.items()
        if coefficient != 1 or len(monomial) != 1:
            return None
        variable, exponent = monomial[0]
        if exponent != 1:
            return None
        return variable

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            terms[monomial] = terms.get(monomial, 0) + coefficient
        return Polynomial(terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            terms[monomial] = terms.get(monomial, 0) - coefficient
        return Polynomial(terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        terms: Dict[Monomial, int] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                product = _multiply_monomials(mono_a, mono_b)
                terms[product] = terms.get(product, 0) + coeff_a * coeff_b
        return Polynomial(terms)

    def exact_divide(self, divisor: int) -> Optional["Polynomial"]:
        """Divide by an integer when every coefficient divides exactly;
        None otherwise. (Exactness makes integer truncation irrelevant,
        so the result is a faithful polynomial for FORTRAN division.)"""
        if divisor == 0:
            return None
        if any(coefficient % divisor for coefficient in self._terms.values()):
            return None
        return Polynomial(
            {m: coefficient // divisor for m, coefficient in self._terms.items()}
        )

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, env: Mapping[Variable, int]) -> Optional[int]:
        """Fully evaluate; None when a support variable is missing."""
        total = 0
        for monomial, coefficient in self._terms.items():
            product = coefficient
            for variable, exponent in monomial:
                if variable not in env:
                    return None
                product *= env[variable] ** exponent
            total += product
        return total

    def partial_evaluate(self, env: Mapping[Variable, int]) -> "Polynomial":
        """Substitute known variables; the rest remain symbolic."""
        result = Polynomial()
        for monomial, coefficient in self._terms.items():
            value = coefficient
            remaining = []
            for variable, exponent in monomial:
                if variable in env:
                    value *= env[variable] ** exponent
                else:
                    remaining.append((variable, exponent))
            term = Polynomial({_sorted_monomial(remaining): value})
            result = result + term
        return result

    def substitute(self, bindings: Mapping[Variable, "Polynomial"]) -> "Polynomial":
        """Replace variables by polynomials (function composition)."""
        result = Polynomial()
        for monomial, coefficient in self._terms.items():
            term = Polynomial.constant(coefficient)
            for variable, exponent in monomial:
                factor = bindings.get(variable, Polynomial.variable(variable))
                for _ in range(exponent):
                    term = term * factor
            result = result + term
        return result

    # -- protocol ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and other._terms == self._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for monomial, coefficient in sorted(
            self._terms.items(),
            key=lambda item: (-sum(e for _v, e in item[0]), repr(item[0])),
        ):
            factors = "*".join(
                variable.name if exponent == 1 else f"{variable.name}^{exponent}"
                for variable, exponent in monomial
            )
            if not factors:
                parts.append(str(coefficient))
            elif coefficient == 1:
                parts.append(factors)
            elif coefficient == -1:
                parts.append(f"-{factors}")
            else:
                parts.append(f"{coefficient}*{factors}")
        return " + ".join(parts).replace("+ -", "- ")


def _multiply_monomials(a: Monomial, b: Monomial) -> Monomial:
    exponents: Dict[Variable, int] = {}
    for variable, exponent in a:
        exponents[variable] = exponents.get(variable, 0) + exponent
    for variable, exponent in b:
        exponents[variable] = exponents.get(variable, 0) + exponent
    return _sorted_monomial(exponents.items())


def expr_to_polynomial(expr: Expr) -> Optional[Polynomial]:
    """Convert a symbolic expression to a polynomial over its entry
    variables, or None when it is not (faithfully) polynomial.

    Division converts only when the divisor is a constant that divides
    every numerator coefficient exactly, so FORTRAN truncation cannot
    diverge from polynomial evaluation. Unknown leaves, comparisons, MOD,
    MIN/MAX, and ABS are not polynomial.
    """
    if isinstance(expr, ConstExpr):
        return Polynomial.constant(expr.value)
    if isinstance(expr, EntryExpr):
        return Polynomial.variable(expr.var)
    if isinstance(expr, UnknownExpr):
        return None
    if isinstance(expr, OpExpr):
        if expr.op == "neg":
            inner = expr_to_polynomial(expr.args[0])
            return None if inner is None else -inner
        if expr.op in ("+", "-", "*"):
            left = expr_to_polynomial(expr.args[0])
            right = expr_to_polynomial(expr.args[1])
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            return left * right
        if expr.op == "/":
            left = expr_to_polynomial(expr.args[0])
            right = expr_to_polynomial(expr.args[1])
            if left is None or right is None:
                return None
            divisor = right.constant_value()
            if divisor is None:
                return None
            return left.exact_divide(divisor)
    return None
