"""Terms and expressions of the NDlog language.

A *term* is anything that may appear as a predicate argument: variables,
constants, arithmetic/boolean expressions, builtin function calls, tuple
constructors (``link(@S,@D,C)`` used as a function argument), and aggregate
specifications (``min<C>``, head-only).

Terms are immutable and hashable so they can be used as dictionary keys and
compared structurally in tests.

Address values (the contents of a location specifier) are ordinary Python
strings at runtime; what makes a term an *address type* is the ``@`` marker
recorded on the term (``location=True``), which the validator uses to
enforce address type safety (Definition 6.2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import EvaluationError

#: Aggregate function names accepted in rule heads (``min<C>`` etc.).
AGGREGATE_FUNCS = ("min", "max", "count", "sum", "avg")

#: The distinguished empty-list constant. Path vectors are Python tuples.
NIL: tuple = ()


class Term:
    """Base class for all NDlog terms."""

    __slots__ = ()

    def variables(self) -> frozenset:
        """Return the set of variable names occurring in this term."""
        return frozenset()


@dataclass(frozen=True)
class Variable(Term):
    """A logic variable.  ``location=True`` when written ``@X``."""

    name: str
    location: bool = field(default=False, compare=False)

    def variables(self) -> frozenset:
        return frozenset((self.name,))

    def __repr__(self) -> str:
        return ("@" if self.location else "") + self.name


@dataclass(frozen=True)
class Constant(Term):
    """A constant value: number, string atom, address, or list.

    ``location=True`` when written ``@addr`` (an address constant).
    """

    value: object
    location: bool = field(default=False, compare=False)

    def __repr__(self) -> str:
        prefix = "@" if self.location else ""
        if self.value == NIL:
            return prefix + "nil"
        return prefix + repr(self.value)


@dataclass(frozen=True)
class AggregateSpec(Term):
    """An aggregate field in a rule head, e.g. ``min<C>``.

    ``func`` is one of :data:`AGGREGATE_FUNCS`; ``var`` is the aggregated
    variable name (empty for ``count<*>``).
    """

    func: str
    var: str

    def variables(self) -> frozenset:
        return frozenset((self.var,)) if self.var else frozenset()

    def __repr__(self) -> str:
        return f"{self.func}<{self.var or '*'}>"


@dataclass(frozen=True)
class FuncCall(Term):
    """A builtin function application, e.g. ``f_concatPath(X, P)``."""

    name: str
    args: Tuple[Term, ...]

    def variables(self) -> frozenset:
        out: frozenset = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class TupleTerm(Term):
    """A tuple constructor used as a term, e.g. ``link(@S,@D,C)`` inside
    ``f_concatPath(link(@S,@D,C), nil)`` in rule SP1 of the paper.

    Evaluates to a :class:`ConstructedTuple` value.
    """

    pred: str
    args: Tuple[Term, ...]

    def variables(self) -> frozenset:
        out: frozenset = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def __repr__(self) -> str:
        return f"{self.pred}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class BinOp(Term):
    """A binary arithmetic or comparison expression."""

    op: str
    left: Term
    right: Term

    def variables(self) -> frozenset:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnaryOp(Term):
    """A unary expression (negation / logical not)."""

    op: str
    operand: Term

    def variables(self) -> frozenset:
        return self.operand.variables()

    def __repr__(self) -> str:
        return f"{self.op}({self.operand!r})"


@dataclass(frozen=True)
class ConstructedTuple:
    """Runtime value of a :class:`TupleTerm`: a named tuple of values.

    Builtin list functions (``f_concatPath``) understand these; e.g. the
    node sequence of ``link(a, b, 5)`` is ``(a, b)``.
    """

    pred: str
    values: Tuple[object, ...]

    def __repr__(self) -> str:
        return f"{self.pred}{self.values!r}"


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}

_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_BOOL = {
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


def evaluate(term: Term, bindings: dict, functions: dict) -> object:
    """Evaluate ``term`` under ``bindings`` using the builtin ``functions``.

    ``bindings`` maps variable names to runtime values; ``functions`` maps
    builtin names (``f_...``) to Python callables.

    Raises :class:`EvaluationError` on unbound variables or unknown
    functions so that program bugs surface loudly rather than silently
    producing wrong tuples.
    """
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        try:
            return bindings[term.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {term.name!r}") from None
    if isinstance(term, BinOp):
        left = evaluate(term.left, bindings, functions)
        right = evaluate(term.right, bindings, functions)
        op = term.op
        if op in _ARITH:
            return _ARITH[op](left, right)
        if op in _COMPARE:
            return _COMPARE[op](left, right)
        if op in _BOOL:
            return _BOOL[op](left, right)
        raise EvaluationError(f"unknown operator {op!r}")
    if isinstance(term, UnaryOp):
        value = evaluate(term.operand, bindings, functions)
        if term.op == "-":
            return -value
        if term.op == "!":
            return not value
        raise EvaluationError(f"unknown unary operator {term.op!r}")
    if isinstance(term, FuncCall):
        func = functions.get(term.name)
        if func is None:
            raise EvaluationError(f"unknown function {term.name!r}")
        args = [evaluate(a, bindings, functions) for a in term.args]
        return func(*args)
    if isinstance(term, TupleTerm):
        values = tuple(evaluate(a, bindings, functions) for a in term.args)
        return ConstructedTuple(term.pred, values)
    if isinstance(term, AggregateSpec):
        raise EvaluationError("aggregate specs cannot be evaluated directly")
    raise EvaluationError(f"cannot evaluate term {term!r}")
