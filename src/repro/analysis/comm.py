"""Analysis 4: communication-cost profiles after localization (ND4xx).

Localization (Algorithm 2) makes every rule body single-site, so a
rule's communication behaviour is statically visible: the head either
commits locally or ships one hop along a link.  For every shipping
rule this analysis computes a *shipment profile* -- which literal
crosses the link, how the destination is determined, and a fan-out
class.  It prices no traffic: it runs before any table holds a row,
so how many matches a rule ships per round is not known here.

* **local** -- head commits where the body evaluates; no traffic;
* **unicast** -- one message per body match: the destination is pinned
  by data (it appears in a non-link body literal, an assignment, or an
  equality condition), or the link tuple itself is the driving tuple;
* **neighborhood** -- the destination endpoint ranges freely over the
  site's links: every body match ships to *every* neighbor (degree
  fan-out).  **ND403** (info);
* **broadcast** -- the destination is not constrained by any link
  literal at all: the rule ships to arbitrary addresses drawn from
  stored data.  **ND401** (warning).

A neighborhood rule whose head relation is recursive through its own
body re-floods every derived tuple to every neighbor -- the broadcast
storm shape, **ND402** (warning): one link flap triggers a
network-wide re-flood per round.

Location-free (plain Datalog) programs have no communication and are
skipped.  Programs that have not been localized yet are localized into
a scratch copy first, so ``compile(source, lint=...)`` sees deploy
shapes without requiring the ``localize`` pass to have run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.common import program_is_located, rule_name, rule_span
from repro.analysis.diagnostics import Diagnostic
from repro.engine.stratify import dependency_graph, tarjan_sccs
from repro.ndlog.ast import Assignment, Condition, Literal, Program, Rule
from repro.ndlog.terms import BinOp, Constant, Term, Variable

ANALYSIS = "communication"


def _location_key(term: Term):
    if isinstance(term, Variable):
        return ("var", term.name)
    if isinstance(term, Constant):
        return ("const", term.value)
    return ("expr", repr(term))


def _body_sites(rule: Rule) -> Set:
    return {_location_key(lit.location)
            for lit in rule.body_literals if lit.args}


def _localized_view(program: Program) -> Program:
    """The program with single-site bodies: itself if already canonical,
    else a scratch localization (best-effort -- rules the rewrite cannot
    handle are analyzed as-is)."""
    if all(len(_body_sites(rule)) <= 1 for rule in program.rules):
        return program
    from repro.planner.localization import localize

    try:
        return localize(program)
    except Exception:
        return program


def _pinned_variables(rule: Rule, link: Optional[Literal]) -> Set[str]:
    """Variables whose value is determined per body match by something
    other than ranging over the link table: membership in a non-link
    literal, an assignment, or an equality condition."""
    pinned: Set[str] = set()
    for item in rule.body:
        if isinstance(item, Literal):
            if not item.link_literal and item is not link:
                pinned |= item.variables()
        elif isinstance(item, Assignment):
            pinned.add(item.var.name)
        elif isinstance(item, Condition):
            expr = item.expr
            if isinstance(expr, BinOp) and expr.op == "==":
                pinned |= expr.variables()
    return pinned


def _component_map(program: Program) -> Dict[str, frozenset]:
    rules = [rule for rule in program.rules if rule.body]
    out: Dict[str, frozenset] = {}
    for component in tarjan_sccs(dependency_graph(rules)):
        frozen = frozenset(component)
        for pred in component:
            out[pred] = frozen
    return out


def analyze(program: Program):
    """Profile per-rule shipments; returns ``(diagnostics, summary)``."""
    diagnostics: List[Diagnostic] = []
    if not program_is_located(program):
        return diagnostics, {"located": False, "profiles": []}

    view = _localized_view(program)
    components = _component_map(view)
    profiles: List[Dict[str, object]] = []

    for rule in view.rules:
        if not rule.body or not rule.head.args:
            continue
        name = rule_name(rule)
        sites = _body_sites(rule)
        if len(sites) != 1:
            # Localization could not canonicalize this rule; the
            # validator / localize pass owns reporting that.
            continue
        site = next(iter(sites))
        head_key = _location_key(rule.head.location)
        links = [lit for lit in rule.body_literals
                 if lit.link_literal and lit.arity >= 2]
        profile: Dict[str, object] = {"rule": name,
                                      "head": rule.head.pred}
        if head_key == site:
            profile["class"] = "local"
            profiles.append(profile)
            continue

        # The rule ships its head one hop.  How is the destination
        # chosen per body match?
        endpoint_links = [
            link for link in links
            if head_key in (_location_key(link.args[0]),
                            _location_key(link.args[1]))
        ]
        data_literals = [lit for lit in rule.body_literals
                         if not lit.link_literal]

        if not endpoint_links:
            profile["class"] = "broadcast"
            profiles.append(profile)
            diagnostics.append(Diagnostic(
                code="ND401", severity="warning", analysis=ANALYSIS,
                rule=name, pred=rule.head.pred, span=rule_span(rule),
                message=(
                    f"rule ships {rule.head.pred!r} to destination "
                    f"{head_key[1]!r} that no body link literal "
                    f"constrains -- broadcast-shaped traffic to "
                    f"arbitrary addresses"
                ),
                hint=("route results along a #link literal so every "
                      "message crosses one physical hop "
                      "(link-restriction, Definition 5)"),
            ))
            continue

        link = endpoint_links[0]
        profile["link"] = link.pred
        pinned = _pinned_variables(rule, link)
        dest_is_var = head_key[0] == "var"
        dest_pinned = (not dest_is_var) or head_key[1] in pinned

        if dest_pinned or not data_literals:
            # Either the data pins the destination, or the link table
            # itself is the driving relation (one message per link row).
            profile["class"] = "unicast"
            profiles.append(profile)
            continue

        # Destination ranges freely over the neighbor set.
        recursive_flood = bool(
            components.get(rule.head.pred)
            and any(lit.pred in components[rule.head.pred]
                    for lit in rule.body_literals)
        )
        profile["class"] = "neighborhood"
        profile["fanout"] = "degree"
        profiles.append(profile)
        if recursive_flood:
            diagnostics.append(Diagnostic(
                code="ND402", severity="warning", analysis=ANALYSIS,
                rule=name, pred=rule.head.pred, span=rule_span(rule),
                message=(
                    f"broadcast storm shape: recursive rule re-floods "
                    f"every derived {rule.head.pred!r} tuple to every "
                    f"neighbor (degree fan-out around the "
                    f"{sorted(components[rule.head.pred])} cycle)"
                ),
                hint=("pin the destination with data (join it against a "
                      "stored relation or an equality condition) or "
                      "prune the flood with an aggregate-selection view "
                      "before advertising"),
            ))
        else:
            diagnostics.append(Diagnostic(
                code="ND403", severity="info", analysis=ANALYSIS,
                rule=name, pred=rule.head.pred, span=rule_span(rule),
                message=(
                    f"neighborhood fan-out: each body match ships "
                    f"{rule.head.pred!r} to every neighbor along "
                    f"{link.pred!r} (degree messages per match)"
                ),
            ))

    summary = {
        "located": True,
        "localized_for_analysis": view is not program,
        "profiles": profiles,
    }
    return diagnostics, summary
