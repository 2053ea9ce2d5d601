"""NDlog program validation (Definitions 1-6 of the paper).

A valid NDlog program satisfies four syntactic constraints on top of
Datalog (Definition 6):

1. **Location specificity** -- every predicate's first attribute is a
   location specifier (an ``@``-marked term).
2. **Address type safety** -- a variable used as an address type anywhere
   in a rule is used as an address type everywhere in that rule (checked
   program-wide by the ndlint ``types`` analysis, ND101).
3. **Stored link relations** -- link relations never appear in the head of
   a rule with a non-empty body.
4. **Link-restriction** -- every non-local rule is link-restricted
   (Definition 5): exactly one link literal, and every other predicate
   (head included) is located at the link's source or destination field.

The validator also enforces basic sanity: consistent arities, a literal
in every rule body, aggregates only in heads, no negation (deferred to
future work in the paper), bound head variables, and safe conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.errors import NDlogValidationError
from repro.ndlog.ast import Assignment, Program, Rule
from repro.ndlog.terms import AggregateSpec, Constant, Term, Variable


@dataclass
class ValidationReport:
    """Outcome of validation: collected errors and derived classifications."""

    errors: List[str] = field(default_factory=list)
    local_rules: List[str] = field(default_factory=list)
    link_restricted_rules: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _location_name(term: Term):
    """The comparison key of a location term: variable name or constant."""
    if isinstance(term, Variable):
        return ("var", term.name)
    if isinstance(term, Constant):
        return ("const", term.value)
    return ("expr", repr(term))


def is_local_rule(rule: Rule) -> bool:
    """Definition 3: all predicates (head included) share one location."""
    locations = {_location_name(rule.head.location)}
    for literal in rule.body_literals:
        locations.add(_location_name(literal.location))
    return len(locations) == 1


def is_link_restricted(rule: Rule) -> bool:
    """Definition 5: local, or exactly one link literal with all other
    location specifiers drawn from the link's source/destination fields."""
    if is_local_rule(rule):
        return True
    links = [lit for lit in rule.body_literals if lit.link_literal]
    if len(links) != 1:
        return False
    link = links[0]
    if link.arity < 2:
        return False
    allowed = {_location_name(link.args[0]), _location_name(link.args[1])}
    for literal in rule.body_literals:
        if literal is link:
            continue
        if _location_name(literal.location) not in allowed:
            return False
    return _location_name(rule.head.location) in allowed


def require_body_literal(rule: Rule) -> None:
    """Raise unless ``rule``'s body names a relation.  Every engine
    derives a rule's heads by driving one of its body literals (a
    strand, Section 3.2), so a body of assignments and conditions
    alone -- ``p(@X) :- X := "a".`` -- has nothing to drive it.
    :func:`validate` and every engine (through
    ``repro.engine.rules.shared_compiled_rules``) ask here."""
    if rule.body and not rule.body_literals:
        raise NDlogValidationError(
            f"{rule.label or repr(rule.head)}: rule body has no literal "
            f"(nothing drives the rule; state {rule.head.pred} as a fact)"
        )


def validate(program: Program, distributed: bool = True) -> ValidationReport:
    """Validate ``program`` and return a :class:`ValidationReport`.

    Address type safety (constraint 2) is not checked per rule here: a
    variable may appear both with and without ``@`` as long as the
    ``@``-form appears in a location position (the paper's own examples
    write ``f_concatPath(link(@S,@D,C), nil)``, reusing address
    variables inside function arguments).  It is the job of the ndlint
    ``types`` analysis (:mod:`repro.analysis`), which unifies column
    types across *all* rules and reports genuine address/value
    conflicts as ND101 errors.

    With ``distributed=False`` the NDlog-specific constraints
    (Definitions 1-6: location specificity, address type safety,
    link-restriction) are skipped -- the mode the compiler uses for
    location-free plain-Datalog programs -- while the plain-Datalog
    sanity checks (arity consistency, rule safety, aggregate placement,
    no negation, ground facts) still apply.
    """
    report = ValidationReport()
    errors = report.errors

    try:
        program.predicates()
    except Exception as exc:  # SchemaError carries the message we want.
        errors.append(str(exc))

    link_preds = program.link_predicates()

    for rule in program.rules:
        name = rule.label or repr(rule.head)
        try:
            require_body_literal(rule)
        except NDlogValidationError as exc:
            errors.append(str(exc))

        # Aggregates only in heads; at most one per head.
        agg_count = sum(
            isinstance(arg, AggregateSpec) for arg in rule.head.args
        )
        if agg_count > 1:
            errors.append(f"{name}: multiple aggregates in head")
        for literal in rule.body_literals:
            if any(isinstance(arg, AggregateSpec) for arg in literal.args):
                errors.append(f"{name}: aggregate in rule body")
            if literal.negated:
                errors.append(
                    f"{name}: negation is not supported (future work in the paper)"
                )

        if distributed:
            # Constraint 1: location specificity.
            for literal in (rule.head, *rule.body_literals):
                if not literal.args:
                    errors.append(
                        f"{name}: {literal.pred} has no location specifier"
                    )
                    continue
                loc = literal.args[0]
                is_marked = (isinstance(loc, (Variable, Constant))
                             and loc.location)
                if not is_marked:
                    errors.append(
                        f"{name}: first attribute of {literal.pred} is not "
                        f"a location specifier (@...)"
                    )

        # Constraint 3: stored link relations.
        if rule.body and rule.head.pred in link_preds:
            errors.append(
                f"{name}: link relation {rule.head.pred} derived by a rule "
                f"(link relations must be stored)"
            )

        if distributed:
            # Constraint 4: link restriction.
            if is_local_rule(rule):
                report.local_rules.append(name)
            elif is_link_restricted(rule):
                report.link_restricted_rules.append(name)
            else:
                errors.append(f"{name}: non-local rule is not link-restricted")

        # Safety: head variables must be bound by positive body literals
        # or assignments.
        bound: Set[str] = set()
        for literal in rule.body_literals:
            bound |= literal.variables()
        for item in rule.body:
            if isinstance(item, Assignment):
                bound |= item.var.variables()
        head_vars = set()
        for arg in rule.head.args:
            if isinstance(arg, AggregateSpec):
                head_vars |= arg.variables()
            else:
                head_vars |= arg.variables()
        unbound = head_vars - bound
        if unbound and rule.body:
            errors.append(
                f"{name}: head variables {sorted(unbound)} not bound in body"
            )

    # Facts must be ground.
    for fact in program.facts:
        if fact.variables():
            errors.append(f"fact {fact!r} is not ground")

    return report


def check(program: Program) -> Program:
    """Validate and return ``program``; raise on any error.

    This is the entry point used by the compiler pipeline; cross-rule
    address/value conflicts are caught by the ndlint ``types`` analysis
    instead (see :func:`validate`).
    """
    report = validate(program)
    if not report.ok:
        raise NDlogValidationError("; ".join(report.errors))
    return program
