"""Semi-naive (SN) evaluation -- Algorithm 1 of the paper.

Input tuples computed in the previous iteration are used as input in the
current iteration; any tuple generated for the first time is input to
the next.  The delta-rule form follows the paper's footnote 2::

    d_p_new :- p_old_1, ..., p_old_{k-1}, d_p_old_k, p_{k+1}, ..., p_n,
               b_1, ..., b_m

i.e. literals *before* the delta position range over tuples generated
before the previous iteration, the delta position ranges over the
previous iteration's new tuples, and literals *after* it range over
everything so far -- which "avoids redundant inferences within each
iteration".

One join plan is compiled per ``(rule, delta_position)`` pair --
leading with the delta literal, by far the smallest source -- and
reused across iterations; each literal reads from its old/delta/full
source by original body position, whatever order the plan joins them
in.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.errors import EvaluationError
from repro.engine.aggregates import AggregateView
from repro.engine.database import Database
from repro.engine.fixpoint import EvalResult, load_program_facts
from repro.engine.rules import (
    CompiledRule,
    SetSource,
    compile_plan,
    execute_plan,
    instantiate_head as _head_of,
)
from repro.engine.stratify import Stratum, stratify
from repro.ndlog.ast import Program
from repro.opt.costbased import StatsCatalog

DEFAULT_MAX_ITERATIONS = 10_000


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
    if provenance is not None:
        from repro.engine.naive import seed_base_provenance

        provenance = seed_base_provenance(provenance, program, db)
        result.provenance = provenance.store

    for stratum in stratify(program):
        _evaluate_stratum(program, db, stratum, result, max_iterations,
                          provenance=provenance)
    return result


def _evaluate_stratum(
    program: Program,
    db: Database,
    stratum: Stratum,
    result: EvalResult,
    max_iterations: int,
    provenance=None,
) -> None:
    compiled = [CompiledRule(rule) for rule in stratum.rules]
    plain = [c for c in compiled
             if c.aggregate is None and c.argmin is None]
    aggregated = [c for c in compiled if c.aggregate is not None]
    argmins = [c for c in compiled if c.argmin is not None]
    recursive_preds = stratum.preds

    stats = StatsCatalog.from_database(db)

    def make_plan(crule, lead_index=None):
        plan = compile_plan(crule, lead_index=lead_index, stats=stats)
        # Pre-register the probed indexes on the stored tables; the
        # per-iteration delta/old SetSources index themselves lazily.
        for pred, positions in plan.index_requests():
            if pred in db.tables:
                db.table(pred).register_index(positions)
        return plan

    #: Full-table plans for the base case, aggregates and argmins.
    base_plans = {id(c): make_plan(c) for c in compiled}
    #: (rule id, delta position) -> plan leading with the delta literal.
    delta_plans: Dict[Tuple[int, int], object] = {}

    # ------------------------------------------------------------------
    # Base case: "execute all the rules to generate the initial pk tuples,
    # which are inserted into the corresponding Bk buffers" (Section 3.1).
    # At this point the tables for this stratum's predicates are empty, so
    # rules with recursive body literals contribute nothing yet.
    # ------------------------------------------------------------------
    buffers: Dict[str, Set[Tuple]] = {pred: set() for pred in recursive_preds}
    # Pre-loaded facts of this stratum's own predicates (e.g. magic seed
    # tuples) are iteration-0 deltas: move them into the buffers so the
    # delta rules see them.
    for pred in recursive_preds:
        table = db.table(pred)
        rows = table.rows()
        for args in rows:
            table.force_delete(args)
        buffers[pred].update(rows)
    for crule in plain:
        table = db.table(crule.head.pred)
        rule_sources = {
            index: db.table(crule.body[index].pred)
            for index in crule.literal_indexes
        }
        plan = base_plans[id(crule)]
        for bindings in execute_plan(plan, rule_sources, db.functions):
            result.inferences += 1
            head = _head_of(crule, bindings, db.functions)
            if provenance is not None:
                provenance.capture(crule, bindings, head, 1, db.functions)
            if head not in table and head not in buffers[crule.head.pred]:
                buffers[crule.head.pred].add(head)

    old: Dict[str, Set[Tuple]] = {pred: set() for pred in recursive_preds}

    # ------------------------------------------------------------------
    # Iterate Algorithm 1's while loop.
    # ------------------------------------------------------------------
    iterations = 0
    while any(buffers.values()):
        iterations += 1
        if iterations > max_iterations:
            raise EvaluationError(
                f"semi-naive evaluation exceeded {max_iterations} iterations "
                f"on stratum {sorted(stratum.preds)}",
                engine="seminaive",
            )
        # Flush: the previous iteration's new tuples become the deltas,
        # and are now visible in the full tables.
        delta: Dict[str, Set[Tuple]] = {}
        for pred, buffered in buffers.items():
            delta[pred] = buffered
            table = db.table(pred)
            for args in buffered:
                table.insert(args)
        buffers = {pred: set() for pred in recursive_preds}
        delta_sources = {pred: SetSource(sorted(rows)) for pred, rows in delta.items()}
        old_sources = {pred: SetSource(sorted(rows)) for pred, rows in old.items()}

        for crule in plain:
            head_pred = crule.head.pred
            table = db.table(head_pred)
            recursive_positions = [
                index
                for index in crule.literal_indexes
                if crule.body[index].pred in recursive_preds
            ]
            for delta_position in recursive_positions:
                if not delta[crule.body[delta_position].pred]:
                    continue
                rule_sources: Dict[int, object] = {}
                for index in crule.literal_indexes:
                    pred = crule.body[index].pred
                    if pred not in recursive_preds:
                        rule_sources[index] = db.table(pred)
                    elif index < delta_position:
                        rule_sources[index] = old_sources[pred]
                    elif index == delta_position:
                        rule_sources[index] = delta_sources[pred]
                    else:
                        rule_sources[index] = db.table(pred)
                plan_key = (id(crule), delta_position)
                plan = delta_plans.get(plan_key)
                if plan is None:
                    plan = make_plan(crule, lead_index=delta_position)
                    delta_plans[plan_key] = plan
                for bindings in execute_plan(plan, rule_sources,
                                             db.functions):
                    result.inferences += 1
                    head = _head_of(crule, bindings, db.functions)
                    if provenance is not None:
                        provenance.capture(crule, bindings, head, 1,
                                           db.functions)
                    if head not in table and head not in buffers[head_pred]:
                        buffers[head_pred].add(head)

        for pred, rows in delta.items():
            old[pred] |= rows
    result.iterations += iterations

    # ------------------------------------------------------------------
    # Aggregates over the completed stratum inputs.
    # ------------------------------------------------------------------
    for crule in aggregated:
        view = AggregateView(crule.head.pred, crule.aggregate)
        rule_sources = {
            index: db.table(crule.body[index].pred)
            for index in crule.literal_indexes
        }
        plan = base_plans[id(crule)]
        for bindings in execute_plan(plan, rule_sources, db.functions):
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

    from repro.engine.naive import _materialize_argmin

    for crule in argmins:
        _materialize_argmin(db, crule, result, plan=base_plans[id(crule)],
                            provenance=provenance)
