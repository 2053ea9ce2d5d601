"""Rule compilation and join planning.

:func:`compile_plan` is the planner every engine uses.  For a rule
(optionally relative to a *driving* literal, i.e. one strand of Figures
3/5 of the paper) it chooses a literal order (bound-ness first, then
estimated selectivity -- Sections 5.1.2/5.3, via
:mod:`repro.planner.reorder` and
:class:`repro.opt.costbased.StatsCatalog`) and classifies every
argument position of every literal once: fed to the hash-index lookup
(constants, prefix-bound variables, prefix-evaluable expressions),
binding a new variable, repeating one within the literal, or an
embedded expression to check per candidate.  A :class:`JoinPlan` is
pure metadata; it has two executors:

- PSN strands generate one flat Python function from it
  (:mod:`repro.engine.kernels`);
- the set-oriented engines run it through :func:`execute_plan`, the
  step chain folded into generator closures over binding dicts.

The left-to-right interpreter, which shares nothing with the planner,
lives in ``tests/interpreter.py`` as the reference both executors are
held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.engine.facts import Fact
from repro.errors import EvaluationError, PlanError
from repro.ndlog.ast import Assignment, Condition, Literal, Program, Rule
from repro.ndlog.terms import (
    AggregateSpec,
    Constant,
    Term,
    Variable,
    compile_term,
    evaluate,
)
from repro.planner.reorder import choose_next_literal


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class SetSource:
    """A source over a plain set of tuples (used for SN's old/delta sets).

    Builds per-position indexes lazily; the set must not be mutated after
    construction.
    """

    def __init__(self, rows: Sequence[Tuple]):
        self._rows = list(rows)
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple, List[Tuple]]] = {}

    def rows(self) -> Sequence[Tuple]:
        return self._rows

    def lookup(self, positions: Tuple[int, ...], values: Tuple):
        if not positions:
            return self._rows
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for args in self._rows:
                index.setdefault(
                    tuple(args[i] for i in positions), []
                ).append(args)
            self._indexes[positions] = index
        return index.get(values, ())


EMPTY_SOURCE = SetSource(())


# ----------------------------------------------------------------------
# Compiled rules
# ----------------------------------------------------------------------
@dataclass
class AggregateInfo:
    """Description of an aggregate rule head, e.g. ``spCost(@S,@D,min<C>)``.

    ``value_position`` is the aggregate's index in the head; ``group_positions``
    are the remaining head indexes (the GROUP BY key).
    """

    func: str
    var: str
    value_position: int
    group_positions: Tuple[int, ...]


class CompiledRule:
    """A rule pre-split into literals / assignments / conditions."""

    def __init__(self, rule: Rule):
        self.rule = rule
        self.head = rule.head
        self.body = tuple(rule.body)
        self.literal_indexes: Tuple[int, ...] = tuple(
            i for i, item in enumerate(self.body) if isinstance(item, Literal)
        )
        agg = rule.head_aggregate()
        if agg is None:
            self.aggregate: Optional[AggregateInfo] = None
        else:
            position, spec = agg
            self.aggregate = AggregateInfo(
                func=spec.func,
                var=spec.var,
                value_position=position,
                group_positions=tuple(
                    i for i in range(rule.head.arity) if i != position
                ),
            )
        #: (group_positions, value_position, func) witness annotation.
        self.argmin = rule.argmin
        self.label: str = rule.label or repr(rule.head)
        #: Generated strand kernels, ``(driver index, literal order)`` ->
        #: :class:`repro.engine.kernels.StrandKernel`.
        self.kernels: Dict[Tuple[int, Tuple[int, ...]], object] = {}

    def ground_body(self, bindings: Dict[str, object],
                    functions: Dict[str, Callable]):
        """Ground every body literal under a full solution's bindings.

        The provenance capture seam of the binding-dict evaluator
        (:func:`execute_plan`): a solution binds every
        body-literal variable, so the participating facts can be
        re-derived from the bindings after the fact -- the evaluator
        itself stays capture-free.  (Generated strand kernels hand
        over the matched tuples directly.)
        """
        return tuple(
            Fact(literal.pred, tuple(
                evaluate(term, bindings, functions) for term in literal.args
            ))
            for literal in map(self.body.__getitem__, self.literal_indexes)
        )

    def body_preds(self) -> Tuple[str, ...]:
        return tuple(self.body[i].pred for i in self.literal_indexes)

    def __repr__(self) -> str:
        return f"CompiledRule({self.rule!r})"


# ----------------------------------------------------------------------
# Unification and lookup
# ----------------------------------------------------------------------
def unify_literal(
    literal: Literal,
    fact_args: Tuple,
    bindings: Dict[str, object],
    functions: Dict[str, Callable],
) -> Optional[Dict[str, object]]:
    """Match ``literal`` against ``fact_args`` under ``bindings``.

    Returns the extended bindings, or ``None`` on mismatch.
    """
    if len(literal.args) != len(fact_args):
        return None
    new: Optional[Dict[str, object]] = None
    current = bindings
    for term, value in zip(literal.args, fact_args):
        if isinstance(term, Variable):
            bound = current.get(term.name, _MISSING)
            if bound is _MISSING:
                if new is None:
                    new = dict(bindings)
                    current = new
                new[term.name] = value
            elif bound != value:
                return None
        elif isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            # Complex term: must be evaluable under current bindings.
            if evaluate(term, current, functions) != value:
                return None
    return new if new is not None else dict(bindings)


_MISSING = object()


# ----------------------------------------------------------------------
# Compiled join plans
# ----------------------------------------------------------------------
class LiteralStep:
    """Static matching metadata for one body literal at its position in
    a compiled plan.

    Given the set of variables bound by the evaluation prefix, every
    argument position is classified once, at compile time:

    * ``positions`` / ``getters`` -- positions consumed by the hash
      index lookup, each with the term that supplies its value: a
      constant, a prefix-bound variable, or an expression whose inputs
      are prefix-bound.
    * ``bind_specs`` -- positions whose (first-occurrence) variable is
      bound from the candidate tuple.
    * ``dup_checks`` -- ``(pos, first_pos)`` pairs for a variable
      repeated within the literal: candidate tuples must agree on the
      two positions (a pure positional comparison, no unification).
    * ``residual_exprs`` -- ``(pos, term)`` for embedded expressions
      whose inputs include variables this literal itself binds; checked
      per candidate after binding.

    ``exclude_driver`` marks literals that precede the driving literal
    in the original body of a strand and share its predicate: the
    paper's footnote-2 delta form excludes the driving fact there so a
    self-join derivation fires exactly once (Theorem 2).

    Steps hold terms, not code: the strand-kernel generator
    (:mod:`repro.engine.kernels`) and the closure executor below each
    compile them their own way, on first use.
    """

    __slots__ = (
        "literal", "body_index", "arity", "positions", "getters",
        "bind_specs", "dup_checks", "residual_exprs", "exclude_driver",
    )

    def __init__(self, literal: Literal, body_index: int, bound,
                 exclude_driver: bool = False):
        self.literal = literal
        self.body_index = body_index
        self.arity = len(literal.args)
        self.exclude_driver = exclude_driver
        lookups: List[Tuple[int, Term]] = []
        bind_specs: List[Tuple[int, str]] = []
        dup_checks: List[Tuple[int, int]] = []
        residual: List[Tuple[int, Term]] = []
        first_local: Dict[str, int] = {}
        for pos, term in enumerate(literal.args):
            if isinstance(term, Constant):
                lookups.append((pos, term))
            elif isinstance(term, Variable):
                name = term.name
                if name in bound:
                    lookups.append((pos, term))
                elif name in first_local:
                    dup_checks.append((pos, first_local[name]))
                else:
                    first_local[name] = pos
                    bind_specs.append((pos, name))
            elif term.variables() <= bound:
                lookups.append((pos, term))
            else:
                residual.append((pos, term))
        self.positions = tuple(pos for pos, _term in lookups)
        self.getters = tuple(term for _pos, term in lookups)
        self.bind_specs = tuple(bind_specs)
        self.dup_checks = tuple(dup_checks)
        self.residual_exprs = tuple(residual)

    def __repr__(self) -> str:
        return (
            f"LiteralStep({self.literal!r}, lookup={self.positions}, "
            f"binds={[n for _p, n in self.bind_specs]})"
        )


class AssignStep(NamedTuple):
    """``var := expr`` body item at its place in a plan."""

    name: str
    expr: Term


class CondStep(NamedTuple):
    """Boolean condition body item at its place in a plan."""

    expr: Term


class JoinPlan:
    """A compiled evaluation order plus per-step metadata for one rule,
    optionally relative to a driving literal (one strand).

    ``order`` records the body indexes of the literals in evaluation
    order (driver excluded); ``steps`` interleaves
    :class:`LiteralStep`, :class:`AssignStep` and :class:`CondStep`.
    A plan is pure metadata.  PSN strands turn it into a generated
    kernel (:mod:`repro.engine.kernels`); the set-oriented engines run
    it through ``executor``, the step chain folded into nested generator
    closures on first use.
    """

    __slots__ = ("crule", "driver_index", "order", "steps", "_executor")

    def __init__(self, crule: CompiledRule, driver_index: Optional[int],
                 order: Tuple[int, ...], steps: Tuple):
        self.crule = crule
        self.driver_index = driver_index
        self.order = order
        self.steps = steps
        self._executor: Optional[Callable] = None

    @property
    def executor(self) -> Callable:
        if self._executor is None:
            self._executor = _compile_executor(self.steps)
        return self._executor

    def literal_steps(self) -> List[LiteralStep]:
        return [s for s in self.steps if isinstance(s, LiteralStep)]

    def index_requests(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """The ``(pred, positions)`` hash indexes this plan probes --
        pre-registered on the tables at engine construction so the
        first delta does not pay the index-build cost."""
        return [
            (step.literal.pred, step.positions)
            for step in self.literal_steps()
            if step.positions
        ]

    def __repr__(self) -> str:
        return (
            f"JoinPlan({self.crule.label}, driver={self.driver_index}, "
            f"order={self.order})"
        )


def compile_plan(
    crule: CompiledRule,
    driver_index: Optional[int] = None,
    lead_index: Optional[int] = None,
    stats=None,
) -> JoinPlan:
    """Compile a join plan for ``crule``.

    ``driver_index`` marks a strand's driving literal: it is *skipped*
    (its bindings arrive pre-seeded) and its variables start out bound.
    ``lead_index`` instead forces a literal to be evaluated first while
    still scanning its source (the semi-naive engines lead with the
    delta literal).  Remaining literals are ordered greedily --
    bound-ness first, then estimated selectivity (``stats``), via
    :func:`repro.planner.reorder.choose_next_literal`.  Assignments and
    conditions run at the earliest point their inputs are bound,
    preserving their original relative order: bodies are evaluated
    under their *declarative* reading (conjuncts commute), so an
    assignment or condition written before the literal that binds its
    inputs simply waits for that literal.  Items whose inputs never
    become bound raise ``EvaluationError`` when reached.
    """
    if driver_index is not None and lead_index is not None:
        raise PlanError("driver_index and lead_index are mutually exclusive")

    bound: set = set()
    if driver_index is not None:
        bound |= set(crule.body[driver_index].variables())
    driver_literal = (
        crule.body[driver_index] if driver_index is not None else None
    )

    steps: List[object] = []
    pending: List[object] = [
        item for item in crule.body if not isinstance(item, Literal)
    ]

    def place_pending() -> None:
        progress = True
        while progress:
            progress = False
            for item in list(pending):
                if isinstance(item, Assignment):
                    if item.expr.variables() <= bound:
                        steps.append(AssignStep(item.var.name, item.expr))
                        bound.add(item.var.name)
                        pending.remove(item)
                        progress = True
                elif isinstance(item, Condition):
                    if item.variables() <= bound:
                        steps.append(CondStep(item.expr))
                        pending.remove(item)
                        progress = True
                else:
                    raise PlanError(f"unsupported body item {item!r}")

    place_pending()

    remaining = [
        (index, crule.body[index])
        for index in crule.literal_indexes
        if index != driver_index
    ]
    order: List[int] = []
    forced = lead_index
    if forced is not None and all(e[0] != forced for e in remaining):
        raise PlanError(
            f"lead_index {forced} is not a body literal of {crule.label}"
        )
    while remaining:
        if forced is not None:
            entry = next(e for e in remaining if e[0] == forced)
            forced = None
        else:
            entry = choose_next_literal(remaining, bound, stats)
        remaining.remove(entry)
        body_index, literal = entry
        exclude = (
            driver_literal is not None
            and body_index < driver_index
            and literal.pred == driver_literal.pred
        )
        steps.append(
            LiteralStep(literal, body_index, frozenset(bound),
                        exclude_driver=exclude)
        )
        bound |= literal.variables()
        place_pending()
        order.append(body_index)

    # Items whose inputs never become bound keep their original order at
    # the end (they raise at runtime).
    for item in pending:
        if isinstance(item, Assignment):
            steps.append(AssignStep(item.var.name, item.expr))
        else:
            steps.append(CondStep(item.expr))

    return JoinPlan(crule, driver_index, tuple(order), tuple(steps))


def execute_plan(
    plan: JoinPlan,
    sources: Dict[int, object],
    functions: Dict[str, Callable],
    bindings: Optional[Dict[str, object]] = None,
    skip_fact=None,
) -> Iterator[Dict[str, object]]:
    """Yield every satisfying assignment of the plan's rule body.

    ``sources`` maps body-item index to source (a table or a
    :class:`SetSource`); ``skip_fact`` is a strand's driving fact
    (excluded from the steps flagged ``exclude_driver``).

    Yielded binding dicts may be shared between solutions when a step
    binds no new variables; callers must treat them as read-only.
    """
    return plan.executor(
        bindings if bindings is not None else {},
        sources, functions, skip_fact,
    )


def _yield_solution(bindings, sources, functions, skip_fact):
    yield bindings


def _compile_executor(steps: Tuple) -> Callable:
    """Fold the step tuple (right to left) into one generator closure
    per step, each capturing its metadata as locals and calling the
    next step's closure directly -- no step-type dispatch in the loop.
    """
    follow = _yield_solution
    for step in reversed(steps):
        if isinstance(step, LiteralStep):
            follow = _literal_runner(step, follow)
        elif isinstance(step, AssignStep):
            follow = _assign_runner(step, follow)
        elif isinstance(step, CondStep):
            follow = _cond_runner(step, follow)
        else:
            raise PlanError(f"unsupported plan step {step!r}")
    return follow


def _literal_runner(step: LiteralStep, follow: Callable) -> Callable:
    body_index = step.body_index
    positions = step.positions
    arity = step.arity
    dup_checks = step.dup_checks
    bind_specs = step.bind_specs
    residual = tuple(
        (pos, compile_term(term)) for pos, term in step.residual_exprs
    )
    exclude_driver = step.exclude_driver
    getters = tuple(compile_term(term) for term in step.getters)

    def run(bindings, sources, functions, skip_fact):
        source = sources.get(body_index, EMPTY_SOURCE)
        values = tuple([get(bindings, functions) for get in getters])
        exclude = (
            skip_fact.args
            if (exclude_driver and skip_fact is not None)
            else None
        )
        for fact_args in source.lookup(positions, values):
            if len(fact_args) != arity or fact_args == exclude:
                continue
            if dup_checks and any(fact_args[pos] != fact_args[first]
                                  for pos, first in dup_checks):
                continue
            if bind_specs:
                extended = dict(bindings)
                for pos, name in bind_specs:
                    extended[name] = fact_args[pos]
            else:
                extended = bindings
            if residual and any(expr_fn(extended, functions) != fact_args[pos]
                                for pos, expr_fn in residual):
                continue
            yield from follow(extended, sources, functions, skip_fact)

    return run


def _assign_runner(step: AssignStep, follow: Callable) -> Callable:
    name = step.name
    fn = compile_term(step.expr)

    def run(bindings, sources, functions, skip_fact):
        value = fn(bindings, functions)
        current = bindings.get(name, _MISSING)
        if current is _MISSING:
            extended = dict(bindings)
            extended[name] = value
            yield from follow(extended, sources, functions, skip_fact)
        elif current == value:
            yield from follow(bindings, sources, functions, skip_fact)

    return run


def _cond_runner(step: CondStep, follow: Callable) -> Callable:
    fn = compile_term(step.expr)

    def run(bindings, sources, functions, skip_fact):
        if fn(bindings, functions):
            yield from follow(bindings, sources, functions, skip_fact)

    return run


# ----------------------------------------------------------------------
# Head instantiation
# ----------------------------------------------------------------------
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


def shared_compiled_rules(program: Program) -> List[CompiledRule]:
    """One :class:`CompiledRule` per non-empty rule of ``program``,
    memoized on the program object: every engine built over the same
    ``Program`` (each node of a deployment) shares them, and with them
    the strand kernels generated from them -- code is compiled once per
    program and collected with it."""
    cache = program.compiled_cache
    compiled = []
    for rule in program.rules:
        if not rule.body:
            continue
        crule = cache.get(id(rule))
        # An entry keeps its rule alive, so its id cannot be recycled --
        # unless the cache was copied along with a copied program.
        if crule is None or crule.rule is not rule:
            crule = cache[id(rule)] = CompiledRule(rule)
        compiled.append(crule)
    return compiled
