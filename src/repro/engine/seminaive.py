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

That delta rule is a rule strand read another way, so there is one
strand kernel per ``(rule, delta position)``, shared with PSN
(:mod:`repro.engine.kernels`): the delta literal drives, over the
previous iteration's new tuples, and the recursive literals before it
are bound to an ``old`` shadow table per predicate that grows by each
iteration's delta.  The base case, aggregates and arg-extreme views
run each rule's lead strand, as :mod:`repro.engine.naive` does.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import EvaluationError
from repro.engine.database import Database
from repro.engine.fixpoint import EvalResult, load_program_facts
from repro.engine.kernels import strand_kernel
from repro.engine.naive import (
    compiled_strata,
    derive,
    lead_strand,
    materialize_views,
    seed_base_provenance,
)
from repro.engine.rules import CompiledRule, StatsCatalog
from repro.engine.stratify import Stratum
from repro.engine.table import Table
from repro.ndlog.ast import Program

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
        provenance = seed_base_provenance(provenance, program, db)
        result.provenance = provenance.store

    for stratum, compiled in compiled_strata(program):
        _evaluate_stratum(stratum, compiled, result, max_iterations,
                          provenance)
    return result


def _evaluate_stratum(
    stratum: Stratum,
    compiled: List[CompiledRule],
    result: EvalResult,
    max_iterations: int,
    provenance,
) -> None:
    db = result.db
    plain = [c for c in compiled
             if c.aggregate is None and c.argmin is None]
    recursive_preds = stratum.preds
    stats = StatsCatalog.from_database(db)

    #: Tuples generated before the previous iteration, per predicate.
    old = {pred: Table(pred, db.table(pred).arity)
           for pred in recursive_preds}
    #: One ``(rule, delta predicate, kernel)`` per delta rule.
    delta_strands = []
    for crule in plain:
        recursive = [index for index in crule.literal_indexes
                     if crule.body[index].pred in recursive_preds]
        for position in recursive:
            kernel = strand_kernel(crule, position, stats).bind(
                db, provenance is not None,
                tables={index: old[crule.body[index].pred]
                        for index in recursive if index < position})
            delta_strands.append((crule, crule.body[position].pred, kernel))

    buffers: Dict[str, Set[Tuple]] = {}

    def buffer_new(crule: CompiledRule, heads) -> None:
        table = db.table(crule.head.pred)
        buffers[crule.head.pred].update(
            head for head in heads if head not in table)

    # ------------------------------------------------------------------
    # Base case: "execute all the rules to generate the initial pk tuples,
    # which are inserted into the corresponding Bk buffers" (Section 3.1).
    # At this point the tables for this stratum's predicates are empty, so
    # rules with recursive body literals contribute nothing yet.
    # ------------------------------------------------------------------
    # Pre-loaded facts of this stratum's own predicates (e.g. magic seed
    # tuples) are iteration-0 deltas: move them into the buffers so the
    # delta rules see them.
    for pred in recursive_preds:
        table = db.table(pred)
        buffers[pred] = set(table.rows())
        for args in buffers[pred]:
            table.force_delete(args)
    for crule in plain:
        buffer_new(crule, lead_strand(crule, stats, result, provenance)())

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
        delta = {pred: sorted(rows) for pred, rows in buffers.items()}
        for pred, rows in delta.items():
            table = db.table(pred)
            for args in rows:
                table.insert(args)
        buffers = {pred: set() for pred in recursive_preds}

        for crule, pred, kernel in delta_strands:
            if delta[pred]:
                buffer_new(crule, derive(crule, kernel, delta[pred], result,
                                         provenance))

        for pred, rows in delta.items():
            for args in rows:
                old[pred].insert(args)
    result.iterations += iterations

    materialize_views(compiled, stats, result, provenance)
