"""Magic-sets rewriting (Section 5.1.2, [Bancilhon et al. 86]).

"To limit query computation to the relevant portion of the network, we
use a query rewrite technique, called magic sets rewriting."

This module implements the standard adornment-based transformation with
left-to-right sideways information passing:

1. the query literal's constant positions induce a *bound/free*
   adornment on the query predicate;
2. each IDB predicate/adornment pair gets a ``magic_<pred>_<ad>`` seed
   relation holding the bound argument tuples that are actually needed;
3. every rule defining an adorned predicate is guarded by its magic
   literal, and every IDB body literal contributes a *magic rule* that
   forwards the bindings available at its position.  An all-free
   adornment needs every tuple, so its rules take no guard (a 0-ary
   magic relation would have nothing to seed it), and a magic rule with
   nothing before it is a seed fact.

The transformation applies to plain-Datalog programs (location
specifiers pass through untouched as ordinary bound/free argument
positions); the paper's hand-written network variants (``magicDst``,
``magicSrc``) live in :mod:`repro.ndlog.programs` and are what the
distributed experiments execute, exactly as in Section 6.3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import PlanError
from repro.ndlog.ast import Assignment, Literal, Program, Rule
from repro.ndlog.terms import Constant, Term, Variable


def adornment_of(literal: Literal, bound_vars: Set[str]) -> str:
    """'b'/'f' pattern for a literal given the bound variable set."""
    pattern = []
    for arg in literal.args:
        if isinstance(arg, Constant):
            pattern.append("b")
        elif isinstance(arg, Variable):
            pattern.append("b" if arg.name in bound_vars else "f")
        else:
            names = arg.variables()
            pattern.append("b" if names and names <= bound_vars else "f")
    return "".join(pattern)


def _adorned_name(pred: str, adornment: str) -> str:
    return f"{pred}_{adornment}"


def _magic_name(pred: str, adornment: str) -> str:
    return f"magic_{pred}_{adornment}"


def _bound_args(literal: Literal, adornment: str) -> Tuple[Term, ...]:
    return tuple(
        arg for arg, flag in zip(literal.args, adornment) if flag == "b"
    )


def magic_rewrite(program: Program, query: Optional[Literal] = None) -> Program:
    """Rewrite ``program`` for the given query literal.

    The query's ``Constant`` arguments are the bound positions.  Returns
    a new program whose query predicate is the adorned variant; a final
    bridging rule restores the original predicate name so callers can
    compare answer sets directly.
    """
    query = query or program.query
    if query is None:
        raise PlanError("magic rewrite needs a query literal")
    idb = program.idb_predicates()
    if query.pred not in idb:
        raise PlanError(f"query predicate {query.pred!r} is not derived")

    query_adornment = adornment_of(query, set())
    if "b" not in query_adornment:
        # Nothing bound: magic sets degenerate to the original program.
        return program

    rules_by_pred: Dict[str, List[Rule]] = {}
    for rule in program.rules:
        rules_by_pred.setdefault(rule.head.pred, []).append(rule)

    new_rules: List[Rule] = []
    produced: Set[Tuple[str, str]] = set()
    worklist: List[Tuple[str, str]] = [(query.pred, query_adornment)]

    while worklist:
        pred, adornment = worklist.pop()
        if (pred, adornment) in produced:
            continue
        produced.add((pred, adornment))
        for rule_index, rule in enumerate(rules_by_pred.get(pred, ())):
            new_rules.extend(
                _rewrite_rule(rule, adornment, idb, worklist, rule_index)
            )

    # Magic seed: the query's bound constants.
    seed = Literal(
        _magic_name(query.pred, query_adornment),
        _bound_args(query, query_adornment),
    )

    # Bridge the adorned answers back to the original predicate name.
    bridge_head = Literal(query.pred, query.args)
    bridge_body = Literal(_adorned_name(query.pred, query_adornment), query.args)
    bridge = Rule(head=bridge_head, body=(bridge_body,), label="magic_bridge")

    seeds = [rule.head for rule in new_rules if not rule.body]
    return Program(
        rules=[rule for rule in new_rules if rule.body] + [bridge],
        facts=list(program.facts) + [seed] + seeds,
        materializations=dict(program.materializations),
        query=query,
        name=f"{program.name}_magic" if program.name else "magic",
    )


def _rewrite_rule(
    rule: Rule,
    adornment: str,
    idb: frozenset,
    worklist: List[Tuple[str, str]],
    rule_index: int,
) -> List[Rule]:
    """Adorn one rule and emit its guarded variant plus magic rules."""
    if rule.head_aggregate() is not None:
        raise PlanError(
            "magic rewrite over aggregate heads is not supported; rewrite "
            "below the aggregate instead"
        )
    head = rule.head
    if len(adornment) != head.arity:
        raise PlanError(f"adornment {adornment} does not fit {head.pred}")

    bound_vars: Set[str] = set()
    for arg, flag in zip(head.args, adornment):
        if flag == "b":
            bound_vars |= arg.variables()

    out: List[Rule] = []
    new_body: List[object] = []
    if "b" in adornment:
        new_body.append(Literal(
            _magic_name(head.pred, adornment), _bound_args(head, adornment)
        ))
    for item in rule.body:
        if isinstance(item, Literal) and item.pred in idb:
            item_adornment = adornment_of(item, bound_vars)
            worklist.append((item.pred, item_adornment))
            # Magic rule: what is needed of this literal, given what is
            # known so far (left-to-right SIP).  Skip the degenerate case
            # where the needed bindings are exactly the guard itself.
            if "b" in item_adornment:
                magic_head = Literal(
                    _magic_name(item.pred, item_adornment),
                    _bound_args(item, item_adornment),
                )
                degenerate = (
                    len(new_body) == 1
                    and isinstance(new_body[0], Literal)
                    and new_body[0].pred == magic_head.pred
                    and new_body[0].args == magic_head.args
                )
                if not degenerate:
                    out.append(
                        Rule(
                            head=magic_head,
                            body=tuple(new_body),
                            label=f"magic_{rule.label or rule.head.pred}"
                                  f"_{adornment}_{rule_index}_{len(out)}",
                        )
                    )
            new_body.append(item.with_pred(_adorned_name(item.pred, item_adornment)))
            bound_vars |= item.variables()
        elif isinstance(item, Literal):
            new_body.append(item)
            bound_vars |= item.variables()
        elif isinstance(item, Assignment):
            new_body.append(item)
            bound_vars.add(item.var.name)
        else:
            new_body.append(item)

    out.append(
        Rule(
            head=head.with_pred(_adorned_name(head.pred, adornment)),
            body=tuple(new_body),
            label=f"{rule.label or head.pred}_{adornment}",
        )
    )
    return out
