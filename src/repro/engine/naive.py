"""Naive (iterate-all-rules) evaluation [4 in the paper's references].

The reference implementation every other engine is checked against: no
deltas, no book-keeping -- each iteration re-derives everything from the
full current state until nothing changes.  Deliberately simple; used for
correctness baselines and the engine micro-benchmarks.

A rule is evaluated in full by its *lead strand*: the strand kernel
(:mod:`repro.engine.kernels`) of its first body literal, driven by
that table's whole row set.  Nothing precedes the first literal, so no
partner excludes the driving row and a self-join meets it as its own
partner.  The kernel is the one PSN runs for the same (rule, driver),
bound once per stratum and reused every iteration.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.engine.aggregates import AggregateView
from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.fixpoint import EvalResult, load_program_facts
from repro.engine.kernels import strand_kernel
from repro.engine.rules import CompiledRule, shared_compiled_rules
from repro.engine.stratify import Stratum, stratify
from repro.ndlog.ast import Program
from repro.opt.costbased import StatsCatalog

#: Guard against non-terminating programs (e.g. Figure 1 on a cyclic
#: graph without aggregate selections, as discussed in Section 2).
DEFAULT_MAX_ITERATIONS = 10_000


def compiled_strata(
    program: Program,
) -> List[Tuple[Stratum, List[CompiledRule]]]:
    """The program's strata in evaluation order, each with its rules as
    the program's shared :class:`CompiledRule` objects -- so the kernels
    the set-oriented engines run are the ones PSN generated, or will."""
    compiled = {id(c.rule): c for c in shared_compiled_rules(program)}
    return [
        (stratum, [compiled[id(rule)] for rule in stratum.rules])
        for stratum in stratify(program)
    ]


def derive(crule: CompiledRule, kernel: Callable, rows: Sequence[Tuple],
           result: EvalResult, provenance) -> List[Tuple]:
    """The heads ``kernel`` (a strand of ``crule``, the capture variant
    when ``provenance`` is on) derives from the driving ``rows``, each
    counted as one inference and recorded with its body facts."""
    out: List = []
    kernel(rows, result.db.functions, out)
    result.inferences += len(out)
    if provenance is None:
        return out
    pred = crule.head.pred
    for head, body in out:
        provenance.record_fact(crule.label, Fact(pred, head), body, 1)
    return [head for head, _body in out]


def lead_strand(crule: CompiledRule, stats, result: EvalResult,
                provenance) -> Callable[[], List[Tuple]]:
    """``crule`` in full, as a callable returning the heads its body
    derives from ``result.db`` as it stands: its first body literal
    drives, over every row that table holds at the call."""
    index = crule.literal_indexes[0]
    pred = crule.body[index].pred
    rows = result.db.table(pred).rows_view()
    kernel = strand_kernel(crule, index, stats).bind(
        result.db, provenance is not None)
    return lambda: derive(crule, kernel, [(pred, args) for args in rows],
                          result, provenance)


def seed_base_provenance(provenance, program: Program, db: Database):
    """Record the pre-loaded EDB rows as base events (the set-oriented
    engines load facts straight into tables, so there is no queue seam
    to observe them on) and return a derived recorder with ``dedup``
    on -- these engines legitimately re-derive every join each
    iteration, and the set semantics must not leak back into the
    caller's recorder."""
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

    for stratum, compiled in compiled_strata(program):
        plain = [
            (db.table(c.head.pred), lead_strand(c, stats, result, provenance))
            for c in compiled if c.aggregate is None and c.argmin is None
        ]
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
            for table, solve in plain:
                changed |= insert_new(table, solve())
            if not changed:
                break
        result.iterations += iterations
        materialize_views(compiled, stats, result, provenance)
    return result


def insert_new(table, heads: Iterable[Tuple]) -> bool:
    """Insert the ``heads`` that ``table`` does not hold; whether any
    was new."""
    changed = False
    for head in heads:
        if head not in table:
            table.insert(head)
            changed = True
    return changed


def materialize_views(compiled: Sequence[CompiledRule], stats,
                      result: EvalResult, provenance) -> None:
    """Evaluate a stratum's aggregate and arg-extreme rules (which
    :func:`stratify` holds to non-recursive strata) from the
    now-complete relations below them."""
    db = result.db

    def solve(crule):
        return lead_strand(crule, stats, result, provenance)()

    for crule in compiled:
        if crule.aggregate is not None:
            view = AggregateView(crule.head.pred, crule.aggregate)
            for contribution in solve(crule):
                view.apply(contribution, 1)
            insert_new(db.table(crule.head.pred), view.current_rows())
    for crule in compiled:
        if crule.argmin is not None:
            insert_new(db.table(crule.head.pred),
                       _argmin_winners(crule, solve(crule)))


def _argmin_winners(crule: CompiledRule, heads: Iterable[Tuple]):
    """The deterministic winner of each group among ``heads``."""
    group_positions, value_position, func = crule.argmin
    winners: dict = {}
    for head in heads:
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
    return winners.values()
