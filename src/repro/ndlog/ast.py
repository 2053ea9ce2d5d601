"""Abstract syntax tree for NDlog programs.

A program (Definition 6 of the paper) is a set of rules plus optional
``materialize`` declarations (primary keys / lifetimes for stored tables),
ground facts, and a query literal.

Body items come in three kinds:

* :class:`Literal` -- a predicate occurrence.  ``link_literal=True`` when
  written ``#link(...)`` (Definition 4).
* :class:`Assignment` -- ``P = expr`` / ``C := expr``.  When the left-hand
  variable is already bound at runtime this degenerates to an equality
  check, matching Datalog unification semantics.
* :class:`Condition` -- a boolean expression such as ``C < 10`` or
  ``f_member(P, S) == 0``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import SchemaError
from repro.ndlog.terms import (
    AggregateSpec,
    Constant,
    Term,
    Variable,
)

INFINITY = float("inf")


@dataclass(frozen=True)
class Literal:
    """A predicate occurrence ``pred(arg0, arg1, ...)``.

    By NDlog convention the location specifier is ``args[0]``.
    """

    pred: str
    args: Tuple[Term, ...]
    link_literal: bool = False
    negated: bool = False

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def location(self) -> Term:
        """The location specifier term (first argument)."""
        if not self.args:
            raise SchemaError(f"predicate {self.pred!r} has no arguments")
        return self.args[0]

    def variables(self) -> frozenset:
        out: frozenset = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def with_pred(self, pred: str) -> "Literal":
        return replace(self, pred=pred)

    def __repr__(self) -> str:
        prefix = "!" if self.negated else ""
        hash_mark = "#" if self.link_literal else ""
        return f"{prefix}{hash_mark}{self.pred}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class Assignment:
    """``var = expr`` body item."""

    var: Variable
    expr: Term

    def variables(self) -> frozenset:
        return self.var.variables() | self.expr.variables()

    def __repr__(self) -> str:
        return f"{self.var!r} = {self.expr!r}"


@dataclass(frozen=True)
class Condition:
    """A boolean expression body item."""

    expr: Term

    def variables(self) -> frozenset:
        return self.expr.variables()

    def __repr__(self) -> str:
        return repr(self.expr)


BodyItem = Union[Literal, Assignment, Condition]


@dataclass(frozen=True)
class Rule:
    """A single NDlog rule ``head :- body.`` with an optional label.

    ``delete=True`` marks a *delete rule* (an extension used by the
    incremental-maintenance machinery; not part of the paper's surface
    syntax).

    ``argmin`` is an engine annotation (set by the aggregate-selections
    rewrite, not by surface syntax): ``(group_positions, value_position,
    func)`` makes the rule maintain one *witness tuple* per group -- the
    head receives only the group-optimal body tuple, and ties keep the
    incumbent.
    """

    head: Literal
    body: Tuple[BodyItem, ...]
    label: str = ""
    delete: bool = False
    argmin: Optional[Tuple[Tuple[int, ...], int, str]] = None

    @property
    def body_literals(self) -> Tuple[Literal, ...]:
        return tuple(item for item in self.body if isinstance(item, Literal))

    def head_aggregate(self) -> Optional[Tuple[int, AggregateSpec]]:
        """Return ``(position, spec)`` if the head contains an aggregate."""
        for idx, arg in enumerate(self.head.args):
            if isinstance(arg, AggregateSpec):
                return idx, arg
        return None

    def variables(self) -> frozenset:
        out = self.head.variables()
        for item in self.body:
            out |= item.variables()
        return out

    def __repr__(self) -> str:
        label = f"{self.label}: " if self.label else ""
        if not self.body:
            return f"{label}{self.head!r}."
        body = ", ".join(map(repr, self.body))
        return f"{label}{self.head!r} :- {body}."


@dataclass(frozen=True)
class Materialization:
    """A ``materialize(pred, lifetime, size, keys(...))`` declaration.

    ``keys`` holds 1-based attribute positions, following P2 convention.
    ``lifetime`` is seconds, or ``INFINITY`` for hard state.
    ``max_size`` bounds the table cardinality (``INFINITY`` = unbounded).
    """

    pred: str
    lifetime: float = INFINITY
    max_size: float = INFINITY
    keys: Tuple[int, ...] = ()

    def key_indexes(self) -> Tuple[int, ...]:
        """0-based primary-key positions (empty = all attributes)."""
        return tuple(k - 1 for k in self.keys)

    def __repr__(self) -> str:
        life = "infinity" if self.lifetime == INFINITY else repr(self.lifetime)
        size = "infinity" if self.max_size == INFINITY else repr(self.max_size)
        keys = ", ".join(map(str, self.keys))
        return f"materialize({self.pred}, {life}, {size}, keys({keys}))."


@dataclass
class Program:
    """A parsed NDlog program."""

    rules: List[Rule] = field(default_factory=list)
    facts: List[Literal] = field(default_factory=list)
    materializations: Dict[str, Materialization] = field(default_factory=dict)
    query: Optional[Literal] = None
    name: str = ""
    #: Engine-owned memo of what has been compiled from ``rules`` (see
    #: ``repro.engine.rules.shared_compiled_rules``); not part of the
    #: program's value, and collected with the object.
    compiled_cache: Dict[int, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def predicates(self) -> Dict[str, int]:
        """Map every predicate to its arity; raise on inconsistent use."""
        arities: Dict[str, int] = {}

        def note(pred: str, arity: int) -> None:
            seen = arities.get(pred)
            if seen is None:
                arities[pred] = arity
            elif seen != arity:
                raise SchemaError(
                    f"predicate {pred!r} used with arity {arity} and {seen}"
                )

        for rule in self.rules:
            note(rule.head.pred, rule.head.arity)
            for lit in rule.body_literals:
                note(lit.pred, lit.arity)
        for fact in self.facts:
            note(fact.pred, fact.arity)
        return arities

    def idb_predicates(self) -> frozenset:
        """Predicates that appear in some rule head (derived relations)."""
        return frozenset(r.head.pred for r in self.rules if r.body)

    def edb_predicates(self) -> frozenset:
        """Predicates only ever stored, never derived."""
        return frozenset(self.predicates()) - self.idb_predicates()

    def link_predicates(self) -> frozenset:
        """Predicates used as link literals (``#link`` style) anywhere."""
        preds = set()
        for rule in self.rules:
            for lit in rule.body_literals:
                if lit.link_literal:
                    preds.add(lit.pred)
        return frozenset(preds)

    def rename_predicates(self, mapping_or_suffix) -> "Program":
        """Return a copy with predicates renamed.

        Accepts either a ``dict`` mapping old to new names, or a string
        suffix appended to every predicate.  Used to run several copies
        of the same query concurrently (Section 6.4 of the paper).
        """
        if isinstance(mapping_or_suffix, str):
            suffix = mapping_or_suffix
            preds = set(self.predicates())
            mapping = {p: p + suffix for p in preds}
        else:
            mapping = dict(mapping_or_suffix)

        def rename_lit(lit: Literal) -> Literal:
            return lit.with_pred(mapping.get(lit.pred, lit.pred))

        def rename_rule(rule: Rule) -> Rule:
            body = tuple(
                rename_lit(item) if isinstance(item, Literal) else item
                for item in rule.body
            )
            return replace(rule, head=rename_lit(rule.head), body=body)

        return Program(
            rules=[rename_rule(r) for r in self.rules],
            facts=[rename_lit(f) for f in self.facts],
            materializations={
                mapping.get(p, p): replace(m, pred=mapping.get(p, p))
                for p, m in self.materializations.items()
            },
            query=rename_lit(self.query) if self.query else None,
            name=self.name,
        )

    def merged_with(self, other: "Program", name: str = "") -> "Program":
        """Union of two programs (rules, facts, declarations)."""
        materializations = dict(self.materializations)
        for pred, mat in other.materializations.items():
            if pred in materializations and materializations[pred] != mat:
                raise SchemaError(f"conflicting materialize({pred}) declarations")
            materializations[pred] = mat
        return Program(
            rules=list(itertools.chain(self.rules, other.rules)),
            facts=list(itertools.chain(self.facts, other.facts)),
            materializations=materializations,
            query=self.query or other.query,
            name=name or self.name,
        )

    def __repr__(self) -> str:
        parts: List[str] = [repr(m) for m in self.materializations.values()]
        parts += [f"{f!r}." for f in self.facts]
        parts += [repr(r) for r in self.rules]
        if self.query is not None:
            parts.append(f"Query: {self.query!r}.")
        return "\n".join(parts)


def make_literal(pred: str, *args, link: bool = False) -> Literal:
    """Convenience constructor used by tests and rewrites.

    Strings starting with an uppercase letter become variables; ``@``
    prefixes mark location terms; everything else becomes a constant.
    """
    terms: List[Term] = []
    for arg in args:
        if isinstance(arg, Term):
            terms.append(arg)
        elif isinstance(arg, str) and arg.startswith("@"):
            name = arg[1:]
            if name[:1].isupper():
                terms.append(Variable(name, location=True))
            else:
                terms.append(Constant(name, location=True))
        elif isinstance(arg, str) and arg[:1].isupper():
            terms.append(Variable(arg))
        else:
            terms.append(Constant(arg))
    return Literal(pred, tuple(terms), link_literal=link)
