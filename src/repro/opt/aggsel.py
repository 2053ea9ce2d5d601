"""Aggregate selections (Section 5.1.1).

"Aggregate selections are useful when the running state of a monotonic
AGG function can be used to prune query evaluation ... each node only
needs to propagate the most current shortest paths for each destination
to neighbors.  This propagation can be done whenever a shorter path is
derived."

We realize the optimization as a program rewrite.  For a recursive
relation ``r`` that feeds a monotonic aggregate (e.g. ``path`` feeding
``spCost``'s ``min<C>``):

* a *best* view ``r__best`` is introduced, keyed on the aggregate's
  group, holding the group-optimal ``r`` tuple (maintained incrementally
  by the engine's aggregate machinery);
* the occurrences of ``r`` in the bodies of ``r``'s own rules (the
  recursion, i.e. the propagation loop) are redirected to ``r__best``.

The effect is exactly the paper's: only the current best tuple per group
participates in further derivation and is advertised to neighbours; when
a better (or, under deletions, the new best) tuple commits, the keyed
view replaces the old advert, which retracts the stale derivations
downstream.  This is also what makes the dynamic protocol form
confluent: the final advert of every node is its final best, independent
of arrival order.

Aggregate selections are additionally a *termination* device: with the
rewrite, the Figure 1 program terminates even on cyclic graphs with
positive costs (Section 5.1.1), because the best-per-group frontier is
finite and costs cannot decrease forever.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.ndlog.ast import Literal, Materialization, Program, Rule
from repro.ndlog.terms import AggregateSpec, Variable

MONOTONIC_FUNCS = ("min", "max")


@dataclass(frozen=True)
class PruneSpec:
    """A detected aggregate-selection opportunity on relation ``pred``."""

    pred: str
    func: str                      # min / max
    group_positions: Tuple[int, ...]   # positions in ``pred``'s schema
    value_position: int            # cost position in ``pred``'s schema

    @property
    def best_pred(self) -> str:
        return f"{self.pred}__best"


def detect(program: Program) -> List[PruneSpec]:
    """Find relations with a monotonic aggregate computed over them.

    The aggregate rule's body must be a single literal over the relation
    (as in SP3); group variables are mapped to their *first* occurrence
    in that literal, which both places the tuple's own location in the
    group (per-node pruning) and matches SP3's (src, dst) grouping.
    """
    specs: List[PruneSpec] = []
    seen = set()
    for rule in program.rules:
        agg = rule.head_aggregate()
        if agg is None:
            continue
        _position, spec = agg
        if spec.func not in MONOTONIC_FUNCS or not spec.var:
            continue
        literals = rule.body_literals
        if len(literals) != 1:
            # Group derivation would need a join; handled conservatively
            # by skipping (the paper's examples are single-literal).
            body_candidates = [
                lit for lit in literals
                if spec.var in lit.variables()
            ]
            if len(body_candidates) != 1:
                continue
            literal = body_candidates[0]
        else:
            literal = literals[0]
        if literal.pred in seen:
            continue

        positions_of: Dict[str, int] = {}
        for index, arg in enumerate(literal.args):
            if isinstance(arg, Variable) and arg.name not in positions_of:
                positions_of[arg.name] = index
        if spec.var not in positions_of:
            continue
        value_position = positions_of[spec.var]

        group_vars = []
        for arg in rule.head.args:
            if isinstance(arg, AggregateSpec):
                continue
            for name in sorted(arg.variables()):
                if name not in group_vars:
                    group_vars.append(name)
        if not all(name in positions_of for name in group_vars):
            continue
        group_positions = tuple(positions_of[name] for name in group_vars)
        seen.add(literal.pred)
        specs.append(
            PruneSpec(
                pred=literal.pred,
                func=spec.func,
                group_positions=group_positions,
                value_position=value_position,
            )
        )
    return specs


def rewrite(program: Program, specs: Optional[Sequence[PruneSpec]] = None) -> Program:
    """Apply aggregate selections for every (or the given) spec."""
    if specs is None:
        specs = detect(program)
    result = Program(
        rules=list(program.rules),
        facts=list(program.facts),
        materializations=dict(program.materializations),
        query=program.query,
        name=f"{program.name}_aggsel" if program.name else "aggsel",
    )
    for spec in specs:
        result = _apply_one(result, spec)
    return result


def _apply_one(program: Program, spec: PruneSpec) -> Program:
    arity = program.predicates().get(spec.pred)
    if arity is None:
        raise PlanError(f"aggregate selection on unknown relation {spec.pred!r}")

    # Fresh variables V0..V{arity-1} name the relation's attributes.
    variables = [Variable(f"AS{i}") for i in range(arity)]
    variables[0] = Variable("AS0", location=True)

    # r__best(full args) :- r(full args), maintained as an arg-min view:
    # one witness tuple per group, replaced only on a *strict*
    # improvement (ties keep the incumbent -- a same-cost alternative is
    # no improvement and advertising it would churn the network).
    body_literal = Literal(spec.pred, tuple(variables))
    best_rule = Rule(
        head=Literal(spec.best_pred, tuple(variables)),
        body=(body_literal,),
        label=f"{spec.pred}_aggsel_b",
        argmin=(spec.group_positions, spec.value_position, spec.func),
    )

    # Redirect the recursion: occurrences of r in bodies of rules whose
    # head is r now read the pruned view.
    new_rules: List[Rule] = []
    for rule in program.rules:
        if rule.head.pred == spec.pred:
            body = tuple(
                item.with_pred(spec.best_pred)
                if isinstance(item, Literal) and item.pred == spec.pred
                else item
                for item in rule.body
            )
            new_rules.append(replace(rule, body=body))
        else:
            new_rules.append(rule)
    new_rules.append(best_rule)

    materializations = dict(program.materializations)
    # The best view replaces per group: key on the group positions.
    materializations[spec.best_pred] = Materialization(
        spec.best_pred,
        keys=tuple(i + 1 for i in spec.group_positions),
    )
    return Program(
        rules=new_rules,
        facts=list(program.facts),
        materializations=materializations,
        query=program.query,
        name=program.name,
    )
