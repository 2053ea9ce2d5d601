"""Predicate-level stratification.

The naive and semi-naive engines evaluate a program stratum by stratum:
each stratum is a strongly connected component of the predicate
dependency graph, processed in topological order.  Aggregation must not
occur inside a recursive component for these engines (PSN maintains
monotonic aggregates incrementally and has no such restriction for the
programs in the paper, all of which are stratified anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.ndlog.ast import Program, Rule


def dependency_graph(rules: Sequence[Rule]) -> Dict[str, Set[str]]:
    """Predicate dependency graph: head -> the predicates its bodies
    read.  Also used by the static analyses (:mod:`repro.analysis`)."""
    graph: Dict[str, Set[str]] = {}
    for rule in rules:
        deps = graph.setdefault(rule.head.pred, set())
        for literal in rule.body_literals:
            deps.add(literal.pred)
            graph.setdefault(literal.pred, set())
    return graph


def tarjan_sccs(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan's algorithm, iterative; SCCs in reverse topological order."""
    index_counter = [0]
    indexes: Dict[str, int] = {}
    lowlinks: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []

    for root in graph:
        if root in indexes:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                indexes[node] = lowlinks[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(graph[node])
            for offset in range(child_index, len(children)):
                child = children[offset]
                if child not in indexes:
                    work[-1] = (node, offset + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlinks[node] = min(lowlinks[node], indexes[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indexes[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


@dataclass
class Stratum:
    """One evaluation unit: a set of mutually recursive predicates and
    the rules defining them."""

    preds: frozenset
    rules: List[Rule]
    recursive: bool

    def __repr__(self) -> str:
        kind = "recursive" if self.recursive else "non-recursive"
        return f"Stratum({sorted(self.preds)}, {kind}, {len(self.rules)} rules)"


def strata(program: Program) -> List[Stratum]:
    """Split ``program`` into strata in evaluation order, without
    judging whether any engine can run them.  The static analyses
    (:mod:`repro.analysis`) use this to *report* engine restrictions
    that :func:`stratify` turns into hard errors."""
    rules = [rule for rule in program.rules if rule.body]
    graph = dependency_graph(rules)
    sccs = tarjan_sccs(graph)  # reverse topological = dependency-first

    out: List[Stratum] = []
    for component in sccs:
        preds = frozenset(component)
        member_rules = [r for r in rules if r.head.pred in preds]
        if not member_rules:
            continue  # pure EDB component
        recursive = len(component) > 1 or any(
            r.head.pred in set(lit.pred for lit in r.body_literals)
            for r in member_rules
        )
        out.append(Stratum(preds=preds, rules=member_rules,
                           recursive=recursive))
    return out


def stratify(program: Program) -> List[Stratum]:
    """Split ``program`` into strata in evaluation order.

    Raises :class:`PlanError` if an aggregate rule's head participates in
    recursion with its own body (unsupported by the set-oriented
    engines).
    """
    result = strata(program)
    for stratum in result:
        if not stratum.recursive:
            continue
        for rule in stratum.rules:
            if (rule.head_aggregate() is not None
                    or rule.argmin is not None):
                kind = ("arg-extreme view" if rule.argmin is not None
                        else "aggregate rule")
                raise PlanError(
                    f"{kind} {rule.label or rule.head.pred} is recursive; "
                    f"the set-oriented engines ('naive', 'seminaive') "
                    f"evaluate stratum-by-stratum and cannot run it -- "
                    f"use the pipelined engines ('psn' or 'bsn'), which "
                    f"maintain monotonic aggregates incrementally"
                )
    return result
