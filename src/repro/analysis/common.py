"""Shared helpers for the ndlint analyses.

The analyses must never crash -- they run over arbitrary (possibly
invalid) programs, including the random ones the property tests
generate -- so everything here is tolerant: arities are collected
per-occurrence instead of through :meth:`Program.predicates` (which
raises on conflicts), and rule names fall back to the head text when a
rule carries no label.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.ndlog.ast import Assignment, Literal, Program, Rule
from repro.ndlog.pretty import format_literal, format_rule


def rule_name(rule: Rule) -> str:
    """The anchor a diagnostic names a rule by: its label, or its head
    text when unlabeled."""
    return rule.label or format_literal(rule.head)


def rule_span(rule: Rule) -> str:
    """The rule's source text (the diagnostic's span)."""
    return format_rule(rule)


def all_literals(program: Program) -> Iterable[Literal]:
    """Every literal occurrence: heads, bodies, facts, and the query."""
    for rule in program.rules:
        yield rule.head
        yield from rule.body_literals
    yield from program.facts
    if program.query is not None:
        yield program.query


def program_is_located(program: Program) -> bool:
    """True when any literal carries an ``@`` location marker -- i.e.
    the program is NDlog proper, not plain Datalog, and position 0 of
    every predicate is an address column."""
    for literal in all_literals(program):
        if any(getattr(term, "location", False) for term in literal.args):
            return True
    return False


def edb_predicates(program: Program) -> Set[str]:
    """Predicates never derived by a rule with a body: the base tables
    the deployment loads facts into."""
    derived = {rule.head.pred for rule in program.rules if rule.body}
    preds: Set[str] = set()
    for literal in all_literals(program):
        preds.add(literal.pred)
    return preds - derived


def assignments_of(rule: Rule) -> Dict[str, object]:
    """Map each assigned variable to its expression (last wins)."""
    out: Dict[str, object] = {}
    for item in rule.body:
        if isinstance(item, Assignment):
            out[item.var.name] = item.expr
    return out


def source_variables(name: str, assigned: Dict[str, object],
                     _seen: Set[str] = None) -> Set[str]:
    """The body variables a variable's value transitively derives from,
    following assignment chains (``C := C1 + C2`` makes ``C`` derive
    from ``C1`` and ``C2``)."""
    seen = _seen if _seen is not None else set()
    if name in seen:
        return set()
    seen.add(name)
    expr = assigned.get(name)
    if expr is None:
        return {name}
    out: Set[str] = set()
    for sub in expr.variables():
        out |= source_variables(sub, assigned, seen)
    return out


def rules_defining(program: Program, pred: str) -> List[Rule]:
    return [r for r in program.rules if r.body and r.head.pred == pred]
