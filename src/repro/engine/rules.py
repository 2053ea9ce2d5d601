"""Rule compilation and join planning.

:func:`compile_plan` is the planner every engine uses.  For a rule
(optionally relative to a *driving* literal, i.e. one strand of Figures
3/5 of the paper) it chooses a literal order (bound-ness first, then
estimated selectivity from a :class:`StatsCatalog` -- Section 5.3's
"the optimizations of Section 5 can be recast as cost-based decisions",
made here and only here, by :func:`choose_next_literal`) and classifies
every argument position of every literal once: fed to the hash-index
lookup (constants, prefix-bound variables, prefix-evaluable
expressions), binding a new variable, repeating one within the
literal, or an embedded expression to check per candidate.  A :class:`JoinPlan` is
pure metadata with one executor: :mod:`repro.engine.kernels` generates
one flat Python function per strand from it, and all four engines run
those -- PSN / BSN one per (rule, driving literal), semi-naive the same
kernels with the delta literal driving and ``old`` tables bound in
ahead of it, naive (and semi-naive's base case) the strand of each
rule's first body literal over that table's whole row set.

The left-to-right interpreter, which shares nothing with the planner
or the generator, lives in ``tests/interpreter.py`` as the reference
the kernels are held to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.errors import PlanError
from repro.ndlog.ast import Assignment, Condition, Literal, Program, Rule
from repro.ndlog.terms import Constant, Term, Variable, evaluate
from repro.ndlog.validator import require_body_literal


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
        #: Planned literal orders, ``(driver index, catalog key)`` ->
        #: literal order (see :func:`repro.engine.kernels.strand_kernel`).
        self.orders: Dict[Tuple[int, object], Tuple[int, ...]] = {}

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
    (:mod:`repro.engine.kernels`) compiles them, on first use.
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
    A plan is pure metadata; :mod:`repro.engine.kernels` turns it into
    the generated kernel every engine runs.
    """

    __slots__ = ("crule", "driver_index", "order", "steps")

    def __init__(self, crule: CompiledRule, driver_index: Optional[int],
                 order: Tuple[int, ...], steps: Tuple):
        self.crule = crule
        self.driver_index = driver_index
        self.order = order
        self.steps = steps

    def literal_steps(self) -> List[LiteralStep]:
        return [s for s in self.steps if isinstance(s, LiteralStep)]

    def __repr__(self) -> str:
        return (
            f"JoinPlan({self.crule.label}, driver={self.driver_index}, "
            f"order={self.order})"
        )


# ----------------------------------------------------------------------
# Join ordering
# ----------------------------------------------------------------------
#: Row estimate for a relation the catalog has no size for.  Plans are
#: compiled when an engine is built, before derived tables have rows,
#: so the default keeps base-table sizes (loaded ahead of time)
#: comparable with not-yet-materialized derived tables.
DEFAULT_ROWS = 1000.0


class StatsCatalog:
    """Relation-cardinality statistics for join ordering.

    The catalog answers one question for the plan compiler: *given an
    indexed lookup that pins ``bound_count`` of a literal's ``arity``
    positions, roughly how many candidate tuples come back?*  The
    estimate assumes attribute values are uniformly distributed, so
    each additional bound position shaves an equal factor off the
    relation's row count (``rows ** ((arity - bound) / arity)``).
    Relations without a size read :data:`DEFAULT_ROWS`.
    """

    def __init__(self, sizes: Optional[Dict[str, float]] = None):
        self.sizes: Dict[str, float] = dict(sizes or {})

    @classmethod
    def from_database(cls, db) -> "StatsCatalog":
        """Snapshot current table sizes from a ``Database``-like object
        (anything with a ``tables`` mapping of sized values).  Empty
        tables keep the default estimate: at plan-compile time an empty
        derived table says nothing about its eventual size."""
        return cls({name: float(len(table))
                    for name, table in db.tables.items() if len(table)})

    def table_rows(self, pred: str) -> float:
        return self.sizes.get(pred, DEFAULT_ROWS)

    def estimated_candidates(self, pred: str, arity: int, bound_count: int) -> float:
        rows = self.table_rows(pred)
        if arity <= 0 or bound_count >= arity:
            return 1.0
        if bound_count <= 0:
            return rows
        return rows ** ((arity - bound_count) / arity)


def bound_positions(literal: Literal, bound: Set[str]) -> int:
    """How many argument positions of ``literal`` an indexed lookup can
    consume given the variables in ``bound``: constants, variables
    already bound, and expressions whose inputs are all bound."""
    count = 0
    for term in literal.args:
        if isinstance(term, Constant):
            count += 1
        elif isinstance(term, Variable):
            if term.name in bound:
                count += 1
        elif term.variables() <= bound:
            count += 1
    return count


def choose_next_literal(
    candidates: Sequence[Tuple[int, Literal]],
    bound: Set[str],
    stats: Optional[StatsCatalog] = None,
) -> Tuple[int, Literal]:
    """Greedy pick for join ordering among ``(body_index, literal)``
    candidates: highest bound fraction first (bound-ness), then lowest
    estimated candidate count from ``stats`` (selectivity), then
    original body order."""
    def key(entry):
        body_index, literal = entry
        arity = len(literal.args) or 1
        n_bound = bound_positions(literal, bound)
        if stats is not None:
            est = stats.estimated_candidates(literal.pred, arity, n_bound)
        else:
            est = 0.0
        return (-(n_bound / arity), est, body_index)

    return min(candidates, key=key)


def compile_plan(
    crule: CompiledRule,
    driver_index: Optional[int] = None,
    stats: Optional[StatsCatalog] = None,
) -> JoinPlan:
    """Compile a join plan for ``crule``.

    ``driver_index`` marks a strand's driving literal: it is *skipped*
    (its bindings arrive pre-seeded) and its variables start out bound.
    Remaining literals are ordered greedily -- bound-ness first, then
    estimated selectivity (``stats``), via :func:`choose_next_literal`.
    Assignments and conditions run at the earliest point their inputs
    are bound, preserving their original relative order: bodies are
    evaluated under their *declarative* reading (conjuncts commute), so
    an assignment or condition written before the literal that binds
    its inputs simply waits for that literal.  Items whose inputs never
    become bound raise ``EvaluationError`` when reached.
    """
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
    while remaining:
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


def shared_compiled_rules(program: Program) -> List[CompiledRule]:
    """One :class:`CompiledRule` per non-empty rule of ``program``,
    memoized on the program object: every engine built over the same
    ``Program`` (each node of a deployment) shares them, and with them
    the strand kernels generated from them -- code is compiled once per
    program and collected with it.  All four engines take their rules
    from here, so this is where a rule no strand can drive is refused
    (:func:`repro.ndlog.validator.require_body_literal`)."""
    cache = program.compiled_cache
    compiled = []
    for rule in program.rules:
        if not rule.body:
            continue
        crule = cache.get(id(rule))
        # An entry keeps its rule alive, so its id cannot be recycled --
        # unless the cache was copied along with a copied program.
        if crule is None or crule.rule is not rule:
            require_body_literal(rule)
            crule = cache[id(rule)] = CompiledRule(rule)
        compiled.append(crule)
    return compiled
