"""Naive (iterate-all-rules) evaluation [4 in the paper's references].

The reference implementation every other engine is checked against: no
deltas, no book-keeping -- each iteration re-derives everything from the
full current state until nothing changes.  Deliberately simple; used for
correctness baselines and the engine micro-benchmarks.

Each rule's join is compiled once per stratum (see
:mod:`repro.engine.rules`) and the plan is reused every iteration.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import EvaluationError
from repro.engine.aggregates import AggregateView
from repro.engine.database import Database
from repro.engine.fixpoint import EvalResult, load_program_facts
from repro.engine.rules import (
    CompiledRule,
    compile_plan,
    execute_plan,
    instantiate_head as _head_of,
)
from repro.engine.stratify import stratify
from repro.ndlog.ast import Program
from repro.opt.costbased import StatsCatalog

#: Guard against non-terminating programs (e.g. Figure 1 on a cyclic
#: graph without aggregate selections, as discussed in Section 2).
DEFAULT_MAX_ITERATIONS = 10_000


def _plan_for(crule: CompiledRule, db: Database, stats):
    """Compile (and index-register) a full-rule plan."""
    plan = compile_plan(crule, stats=stats)
    for pred, positions in plan.index_requests():
        db.table(pred).register_index(positions)
    return plan


def _table_sources(crule: CompiledRule, db: Database) -> Dict[int, object]:
    return {
        index: db.table(crule.body[index].pred)
        for index in crule.literal_indexes
    }


def seed_base_provenance(provenance, program: Program, db: Database):
    """Record the pre-loaded EDB rows as base events (the set-oriented
    engines load facts straight into tables, so there is no queue seam
    to observe them on) and return a derived recorder with ``dedup``
    on -- these engines legitimately re-derive every join each
    iteration, and the set semantics must not leak back into the
    caller's recorder."""
    from repro.engine.facts import Fact

    provenance = provenance.bind(dedup=True)
    provenance.register_views({
        rule.head.pred for rule in program.rules
        if rule.head_aggregate() is not None or rule.argmin is not None
    })
    idb = program.idb_predicates()
    for table in db.tables.values():
        if table.name in idb:
            continue
        for args in table.rows():
            for _ in range(table.count(args)):
                provenance.base(Fact(table.name, args), 1)
    return provenance


def evaluate(
    program: Program,
    db: Optional[Database] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    provenance=None,
) -> EvalResult:
    if db is None:
        db = Database.for_program(program)
    load_program_facts(program, db)
    result = EvalResult(db=db, program=program)
    stats = StatsCatalog.from_database(db)
    if provenance is not None:
        provenance = seed_base_provenance(provenance, program, db)
        result.provenance = provenance.store

    for stratum in stratify(program):
        compiled = [CompiledRule(rule) for rule in stratum.rules]
        plain = [c for c in compiled
                 if c.aggregate is None and c.argmin is None]
        aggregated = [c for c in compiled if c.aggregate is not None]
        argmins = [c for c in compiled if c.argmin is not None]
        # Compile once per stratum; reuse the plan (and the source dict)
        # on every iteration of the loop below.
        plans = {id(c): _plan_for(c, db, stats) for c in compiled}
        sources = {id(c): _table_sources(c, db) for c in compiled}

        iterations = 0
        while True:
            iterations += 1
            if iterations > max_iterations:
                raise EvaluationError(
                    f"naive evaluation exceeded {max_iterations} iterations "
                    f"on stratum {sorted(stratum.preds)} (non-terminating "
                    f"program?)",
                    engine="naive",
                )
            changed = False
            for crule in plain:
                table = db.table(crule.head.pred)
                plan = plans[id(crule)]
                # Materialize the solutions first: the head table may be
                # among the sources, and inserting while scanning it is
                # undefined.
                for bindings in list(
                    execute_plan(plan, sources[id(crule)], db.functions)
                ):
                    result.inferences += 1
                    head = _head_of(crule, bindings, db.functions)
                    if provenance is not None:
                        provenance.capture(crule, bindings, head, 1,
                                           db.functions)
                    if head not in table:
                        table.insert(head)
                        changed = True
            if not changed:
                break
        result.iterations += iterations

        # Aggregates in a (necessarily non-recursive) stratum: recompute
        # from the now-complete lower strata.
        for crule in aggregated:
            view = AggregateView(crule.head.pred, crule.aggregate)
            plan = plans[id(crule)]
            for bindings in execute_plan(
                plan, sources[id(crule)], db.functions
            ):
                result.inferences += 1
                contribution = _head_of(crule, bindings, db.functions)
                if provenance is not None:
                    provenance.capture(crule, bindings, contribution, 1,
                                       db.functions)
                view.apply(contribution, 1)
            table = db.table(crule.head.pred)
            for head in view.current_rows():
                if head not in table:
                    table.insert(head)

        # Arg-min witness views (non-recursive only; see stratify):
        # recompute the deterministic group winner from scratch.
        for crule in argmins:
            _materialize_argmin(db, crule, result, plan=plans[id(crule)],
                                provenance=provenance)
    return result


def _materialize_argmin(db: Database, crule: CompiledRule,
                        result: EvalResult, plan,
                        provenance=None) -> None:
    group_positions, value_position, func = crule.argmin
    rule_sources = _table_sources(crule, db)
    winners = {}
    for bindings in execute_plan(plan, rule_sources, db.functions):
        result.inferences += 1
        head = _head_of(crule, bindings, db.functions)
        if provenance is not None:
            provenance.capture(crule, bindings, head, 1, db.functions)
        group = tuple(head[i] for i in group_positions)
        best = winners.get(group)
        if best is None:
            winners[group] = head
            continue
        value = head[value_position]
        best_value = best[value_position]
        better = value < best_value if func == "min" else value > best_value
        if better or (value == best_value and repr(head) < repr(best)):
            winners[group] = head
    table = db.table(crule.head.pred)
    for head in winners.values():
        if head not in table:
            table.insert(head)
