"""The interpreter: the one join evaluator that shares nothing with
``compile_plan`` or the kernel generator -- the tests' one independent
reference for the strand kernels all four engines run.

:func:`solve` evaluates a rule body left to right; each literal is
matched against a *source* -- a full table, a :class:`Snapshot` set, or
a single driving fact -- re-deriving the bound positions from the body
AST on every call and re-unifying every argument of every candidate
tuple.  Moved verbatim out of ``repro.engine.rules`` when the engines
stopped offering it (``use_plans=False``), and :func:`instantiate_head`
after it when the closure executor went and left it no other caller;
:func:`interpret` puts the interpreter back behind a built engine's
strands for engine-level differentials.
"""

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.engine.facts import Fact
from repro.engine.rules import CompiledRule, unify_literal
from repro.errors import EvaluationError, PlanError
from repro.ndlog.ast import Assignment, Condition, Literal
from repro.ndlog.terms import AggregateSpec, Constant, Variable, evaluate

_MISSING = object()


class Snapshot:
    """A frozen set of tuples as a source (semi-naive's ``old`` and
    delta sets): filters on every lookup, indexes nothing."""

    def __init__(self, rows):
        self._rows = list(rows)

    def rows(self):
        return self._rows

    def lookup(self, positions, values):
        return [args for args in self._rows
                if tuple(args[i] for i in positions) == values]


EMPTY_SOURCE = Snapshot(())


def _literal_candidates(
    literal: Literal,
    source,
    bindings: Dict[str, object],
    functions: Dict[str, Callable],
):
    """Candidate facts for ``literal``: an indexed lookup on the positions
    bound under ``bindings`` (falling back to a scan when nothing is
    bound)."""
    positions: List[int] = []
    values: List[object] = []
    for index, term in enumerate(literal.args):
        if isinstance(term, Constant):
            positions.append(index)
            values.append(term.value)
        elif isinstance(term, Variable):
            bound = bindings.get(term.name, _MISSING)
            if bound is not _MISSING:
                positions.append(index)
                values.append(bound)
        else:
            names = term.variables()
            if all(name in bindings for name in names):
                positions.append(index)
                values.append(evaluate(term, bindings, functions))
    if not positions:
        return source.rows()
    return source.lookup(tuple(positions), tuple(values))


def solve(
    crule: CompiledRule,
    sources: Dict[int, object],
    functions: Dict[str, Callable],
    bindings: Optional[Dict[str, object]] = None,
    skip_index: Optional[int] = None,
    skip_fact=None,
) -> Iterator[Dict[str, object]]:
    """Yield every satisfying assignment of the rule body.

    ``sources`` maps body-item index -> source for each literal;
    ``skip_index`` marks the driving literal already consumed (its
    bindings must be in ``bindings``).

    ``skip_fact`` (the driving fact) implements the self-join discipline
    of the paper's footnote-2 delta form: literal positions *before* the
    driving position exclude the driving fact itself, so a derivation in
    which the same tuple fills several positions fires exactly once --
    when the strand for its first position runs (Theorem 2).
    """
    state = bindings or {}
    return _solve_from(crule, 0, state, sources, functions, skip_index,
                       skip_fact)


def _solve_from(
    crule: CompiledRule,
    item_index: int,
    bindings: Dict[str, object],
    sources: Dict[int, object],
    functions: Dict[str, Callable],
    skip_index: Optional[int],
    skip_fact,
) -> Iterator[Dict[str, object]]:
    if item_index == len(crule.body):
        yield bindings
        return
    item = crule.body[item_index]

    if item_index == skip_index:
        yield from _solve_from(crule, item_index + 1, bindings, sources,
                               functions, skip_index, skip_fact)
        return

    if isinstance(item, Literal):
        source = sources.get(item_index, EMPTY_SOURCE)
        exclude = None
        if (
            skip_fact is not None
            and skip_index is not None
            and item_index < skip_index
            and item.pred == skip_fact.pred
        ):
            exclude = skip_fact.args
        for fact_args in _literal_candidates(item, source, bindings, functions):
            if fact_args == exclude:
                continue
            extended = unify_literal(item, fact_args, bindings, functions)
            if extended is None:
                continue
            yield from _solve_from(crule, item_index + 1, extended, sources,
                                   functions, skip_index, skip_fact)
        return

    if isinstance(item, Assignment):
        value = evaluate(item.expr, bindings, functions)
        name = item.var.name
        bound = bindings.get(name, _MISSING)
        if bound is _MISSING:
            extended = dict(bindings)
            extended[name] = value
            yield from _solve_from(crule, item_index + 1, extended, sources,
                                   functions, skip_index, skip_fact)
        elif bound == value:
            yield from _solve_from(crule, item_index + 1, bindings, sources,
                                   functions, skip_index, skip_fact)
        return

    if isinstance(item, Condition):
        if evaluate(item.expr, bindings, functions):
            yield from _solve_from(crule, item_index + 1, bindings, sources,
                                   functions, skip_index, skip_fact)
        return

    raise PlanError(f"unsupported body item {item!r}")


def instantiate_head(
    crule: CompiledRule,
    bindings: Dict[str, object],
    functions: Dict[str, Callable],
) -> Tuple:
    """Ground the head under ``bindings``.

    For aggregate rules the aggregate position carries the aggregated
    *input value* (the aggregation itself is maintained by
    :mod:`repro.engine.aggregates`).
    """
    values: List[object] = []
    for term in crule.head.args:
        if isinstance(term, AggregateSpec):
            if term.var:
                try:
                    values.append(bindings[term.var])
                except KeyError:
                    raise EvaluationError(
                        f"aggregate variable {term.var!r} unbound",
                        rule=crule.label,
                    ) from None
            else:
                values.append(1)  # count<*> contribution
        else:
            values.append(evaluate(term, bindings, functions))
    return tuple(values)


def ground_body(crule: CompiledRule, bindings: Dict[str, object],
                functions: Dict[str, Callable]) -> Tuple[Fact, ...]:
    """Every body literal grounded under a full solution's bindings
    (which bind every body-literal variable), in body order."""
    return tuple(
        Fact(literal.pred, tuple(
            evaluate(term, bindings, functions) for term in literal.args
        ))
        for literal in map(crule.body.__getitem__, crule.literal_indexes)
    )


def interpreted_kernel(crule: CompiledRule, driver_index: int, db,
                       capture: bool = False, sources=None) -> Callable:
    """One strand through the interpreter, behind the calling convention
    of the generated kernels (:mod:`repro.engine.kernels`):
    ``kernel(heads, functions, out)`` appends every head the run's
    driving tuples derive, tuple by tuple -- ``(head, ground body
    facts)`` pairs under ``capture``.
    ``sources`` (body index -> source) overrides what a partner literal
    reads, as ``StrandKernel.bind(tables=...)`` does."""
    literal = crule.body[driver_index]
    sources = {
        index: db.table(crule.body[index].pred)
        for index in crule.literal_indexes
        if index != driver_index
    } | (sources or {})

    def kernel(heads, functions, out):
        for args in heads:
            seed = unify_literal(literal, args, {}, functions)
            if seed is None:
                continue
            for bindings in solve(crule, sources, functions, bindings=seed,
                                  skip_index=driver_index,
                                  skip_fact=Fact(literal.pred, args)):
                head = instantiate_head(crule, bindings, functions)
                if capture:
                    out.append((head,
                                ground_body(crule, bindings, functions)))
                else:
                    out.append(head)

    return kernel


def interpret(engine):
    """Swap every strand of a built PSN/BSN engine over to the
    interpreter (plain and provenance-capture kernels alike) and return
    the engine."""
    for strand_list in engine.strands.values():
        for strand in strand_list:
            strand.kernel = interpreted_kernel(
                strand.crule, strand.driver_index, engine.db)
            strand.capture_kernel = interpreted_kernel(
                strand.crule, strand.driver_index, engine.db, capture=True)
    return engine
