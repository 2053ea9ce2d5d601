"""Provenance queries: ``why`` derivation trees and ``why_not``
failed-body analysis.

``why`` answers "how was this tuple derived?": it walks the recorded
derivation graph from the tuple down to base facts, yielding a
:class:`DerivationTree` whose leaves are exactly the base-table facts
the derivation rests on (for shortest-path, the ``link`` facts along
the path).  Recursion through cyclic rule sets is cut with a
path-guard: a fact re-entered on its own support path becomes a
``truncated`` node instead of a loop.

``why_not`` answers "why is this tuple absent?" without needing capture
at all: for each rule whose head could produce the tuple, the body is
replayed left-to-right against the *current* table state, and the first
body item with no satisfying facts is reported as the blocker -- with a
bounded recursive analysis of *that* literal's absence, so a missing
route traces down to the missing link.  This is the stratified-rule-set
analysis: rules are taken from the (pre-localization) program text, and
table state is read through a ``rows_of`` callable so the same code
serves a centralized database and the union view of a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.facts import Fact
from repro.engine.rules import unify_literal
from repro.errors import ReproError
from repro.ndlog.ast import Assignment, Condition, Literal, Program, Rule
from repro.ndlog.pretty import format_body_item
from repro.ndlog.terms import (
    AggregateSpec,
    Constant,
    Variable,
    evaluate,
)
from repro.provenance.store import ProvenanceStore

#: Bound on the binding sets explored per rule body in why_not (the
#: analysis is diagnostic, not exhaustive).
BRANCH_LIMIT = 64
#: Default depth bound for why trees (recursive rules are additionally
#: cut by the path guard, so this only caps pathological chains).
MAX_WHY_DEPTH = 128


# ----------------------------------------------------------------------
# why: derivation trees
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DerivationTree:
    """One node of a ``why`` answer.

    ``rule is None`` marks a base fact (a leaf);  ``truncated`` marks a
    cycle/depth cut -- the fact *has* further provenance that is not
    expanded.  ``alternatives`` counts the live derivations the store
    holds for this fact (the tree expands the most recent one).
    """

    fact: Fact
    rule: Optional[str] = None
    node: Optional[str] = None
    time: float = 0.0
    children: Tuple["DerivationTree", ...] = ()
    truncated: bool = False
    alternatives: int = 0

    @property
    def is_base(self) -> bool:
        return self.rule is None and not self.truncated

    def leaves(self) -> List[Fact]:
        """The base facts this derivation rests on (unique, pre-order)."""
        out: List[Fact] = []
        seen: Set[Fact] = set()
        stack = [self]
        while stack:
            tree = stack.pop()
            if tree.is_base:
                if tree.fact not in seen:
                    seen.add(tree.fact)
                    out.append(tree.fact)
                continue
            stack.extend(reversed(tree.children))
        return out

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def __repr__(self) -> str:
        kind = "base" if self.is_base else (self.rule or "?")
        return f"DerivationTree({self.fact!r}, {kind}, {len(self.children)} children)"


def why(
    store: ProvenanceStore,
    pred: str,
    args: Tuple,
    max_depth: int = MAX_WHY_DEPTH,
) -> Optional[DerivationTree]:
    """The derivation tree for ``pred(args)``, or ``None`` when the
    store holds no live support for it (then ask :func:`why_not`)."""
    fact = Fact(pred, tuple(args))
    return _build_tree(store, fact, frozenset(), max_depth, frozenset())


def _build_tree(
    store: ProvenanceStore,
    fact: Fact,
    path: frozenset,
    depth: int,
    context: frozenset,
) -> Optional[DerivationTree]:
    if fact in path or depth <= 0:
        return DerivationTree(fact, truncated=True)
    records = store.live_records(fact)
    if not records:
        if store.base_count(fact) > 0:
            return DerivationTree(fact)
        return None
    # ``context`` holds this fact's siblings in the parent derivation.
    # Among alternative derivations (an aggregate value may be achieved
    # by several equal-valued contributions) prefer the one whose body
    # facts cohere with those siblings -- e.g. the spCost subtree of a
    # shortestPath derivation then follows the *same* path witness the
    # head joined against, not an arbitrary equal-cost route.
    def preference(rec):
        return (sum(1 for body_fact in rec.body if body_fact in context),
                rec.id)

    rec = max(records, key=preference)
    child_path = path | {fact}
    children: List[DerivationTree] = []
    for index, body_fact in enumerate(rec.body):
        siblings = frozenset(
            sibling for j, sibling in enumerate(rec.body) if j != index
        )
        child = _build_tree(store, body_fact, child_path, depth - 1,
                            siblings)
        if child is None:
            # A body fact with no recorded support of its own (e.g. rows
            # loaded outside the capture window): render it as a leaf.
            child = DerivationTree(body_fact)
        children.append(child)
    return DerivationTree(
        fact=fact,
        rule=rec.rule,
        node=rec.node,
        time=rec.time,
        children=tuple(children),
        alternatives=len(records),
    )


# ----------------------------------------------------------------------
# why_not: failed-body analysis
# ----------------------------------------------------------------------
@dataclass
class RuleFailure:
    """Outcome of replaying one rule body for an absent head tuple."""

    rule: str
    #: ``blocked`` (a body item had no satisfying facts), ``satisfiable``
    #: (the body has a full match -- the tuple should exist; seeing this
    #: at quiescence indicates an engine bug), or ``head-mismatch`` (the
    #: requested constants cannot unify with the rule head).
    status: str
    blocker: Optional[str] = None        # formatted body item, if blocked
    bindings: Dict[str, object] = field(default_factory=dict)
    nested: Optional["WhyNotReport"] = None


@dataclass
class WhyNotReport:
    """Answer to "why is ``pred(args)`` absent?".

    ``args`` entries may be ``None`` as wildcards.  ``present`` short-
    circuits the analysis when the tuple (pattern) actually exists;
    ``is_base`` marks predicates no rule derives (the answer is then
    simply "never inserted").
    """

    pred: str
    args: Tuple
    present: bool
    is_base: bool
    failures: List[RuleFailure] = field(default_factory=list)

    @property
    def blocked_on(self) -> List[str]:
        return [f.blocker for f in self.failures
                if f.status == "blocked" and f.blocker]


def why_not(
    program: Program,
    rows_of: Callable[[str], Sequence[Tuple]],
    pred: str,
    args: Tuple,
    functions: Optional[Dict] = None,
    depth: int = 2,
    _seen: Optional[Set] = None,
) -> WhyNotReport:
    """Failed-body analysis for the absent tuple ``pred(args)``.

    ``rows_of`` maps a predicate to its current rows (return ``()`` for
    unknown predicates); ``depth`` bounds the recursive analysis of
    blocking literals.  ``args`` may contain ``None`` wildcards.
    """
    if functions is None:
        from repro.ndlog.functions import default_functions
        functions = default_functions()
    args = tuple(args)
    seen = _seen if _seen is not None else set()
    seen.add((pred, args))

    present = any(_matches_pattern(row, args) for row in rows_of(pred))
    rules = [r for r in program.rules if r.body and r.head.pred == pred]
    report = WhyNotReport(
        pred=pred, args=args, present=present, is_base=not rules
    )
    if present or not rules:
        return report
    for rule in rules:
        report.failures.append(
            _replay_rule(rule, rows_of, args, functions, depth, seen, program)
        )
    return report


def _matches_pattern(row: Tuple, pattern: Tuple) -> bool:
    if len(row) != len(pattern):
        return False
    return all(want is None or want == got for want, got in zip(pattern, row))


def _unify_head(rule: Rule, args: Tuple) -> Optional[Dict[str, object]]:
    """Bind head variables from the requested tuple; ``None`` on a
    constant mismatch.  Aggregate and expression positions bind nothing
    (they are treated as wildcards)."""
    if rule.head.arity != len(args):
        return None
    bindings: Dict[str, object] = {}
    for term, value in zip(rule.head.args, args):
        if value is None:
            continue
        if isinstance(term, Variable):
            bound = bindings.get(term.name, _MISSING)
            if bound is _MISSING:
                bindings[term.name] = value
            elif bound != value:
                return None
        elif isinstance(term, Constant):
            if term.value != value:
                return None
        # AggregateSpec / expressions: wildcard.
    return bindings


_MISSING = object()


def _replay_rule(
    rule: Rule,
    rows_of: Callable[[str], Sequence[Tuple]],
    args: Tuple,
    functions: Dict,
    depth: int,
    seen: Set,
    program: Program,
) -> RuleFailure:
    label = rule.label or repr(rule.head)
    head_bindings = _unify_head(rule, args)
    if head_bindings is None:
        return RuleFailure(rule=label, status="head-mismatch")

    candidates: List[Dict[str, object]] = [head_bindings]
    for item in rule.body:
        if isinstance(item, Literal):
            extended: List[Dict[str, object]] = []
            rows = rows_of(item.pred)
            for bindings in candidates:
                for row in rows:
                    try:
                        new = unify_literal(item, row, bindings, functions)
                    except ReproError:
                        # An embedded expression with unbound inputs:
                        # this row cannot be checked -- skip it.
                        continue
                    if new is not None:
                        extended.append(new)
                        if len(extended) >= BRANCH_LIMIT:
                            break
                if len(extended) >= BRANCH_LIMIT:
                    break
            if not extended:
                sample = candidates[0]
                nested = None
                pattern = _literal_pattern(item, sample, functions)
                if depth > 0 and (item.pred, pattern) not in seen:
                    nested = why_not(
                        program, rows_of, item.pred, pattern,
                        functions=functions, depth=depth - 1, _seen=seen,
                    )
                return RuleFailure(
                    rule=label,
                    status="blocked",
                    blocker=format_body_item(item),
                    bindings=dict(sample),
                    nested=nested,
                )
            candidates = extended
            continue
        if isinstance(item, Assignment):
            next_candidates: List[Dict[str, object]] = []
            for bindings in candidates:
                if item.expr.variables() <= set(bindings):
                    value = evaluate(item.expr, bindings, functions)
                    name = item.var.name
                    bound = bindings.get(name, _MISSING)
                    if bound is _MISSING:
                        new = dict(bindings)
                        new[name] = value
                        next_candidates.append(new)
                    elif bound == value:
                        next_candidates.append(bindings)
                    # else: this candidate contradicts the requested
                    # head value -- drop it.
                else:
                    next_candidates.append(bindings)  # not yet decidable
            if not next_candidates:
                return RuleFailure(
                    rule=label,
                    status="blocked",
                    blocker=format_body_item(item),
                    bindings=dict(candidates[0]),
                )
            candidates = next_candidates
            continue
        if isinstance(item, Condition):
            surviving = []
            decidable = False
            for bindings in candidates:
                if item.variables() <= set(bindings):
                    decidable = True
                    if evaluate(item.expr, bindings, functions):
                        surviving.append(bindings)
                else:
                    surviving.append(bindings)
            if decidable and not surviving:
                return RuleFailure(
                    rule=label,
                    status="blocked",
                    blocker=format_body_item(item),
                    bindings=dict(candidates[0]),
                )
            candidates = surviving or candidates
            continue
    return RuleFailure(
        rule=label, status="satisfiable", bindings=dict(candidates[0])
    )


def _literal_pattern(literal: Literal, bindings: Dict[str, object],
                     functions: Dict) -> Tuple:
    """The (partially bound) argument pattern of a blocking literal:
    constants and bound variables keep their values, everything else is
    a ``None`` wildcard."""
    pattern: List[object] = []
    for term in literal.args:
        if isinstance(term, Constant):
            pattern.append(term.value)
        elif isinstance(term, Variable):
            pattern.append(bindings.get(term.name))
        elif isinstance(term, AggregateSpec):
            pattern.append(None)
        else:
            names = term.variables()
            if names <= set(bindings):
                try:
                    pattern.append(evaluate(term, bindings, functions))
                except ReproError:
                    pattern.append(None)
            else:
                pattern.append(None)
    return tuple(pattern)
