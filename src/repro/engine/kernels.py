"""Source-generated strand kernels: one flat Python function per rule
strand, compiled once per program.

The paper executes a program as *rule strands* -- each (rule, driving
literal) pair compiled once into a fixed dataflow chain (Section 3.2,
Figures 3/5).  :func:`strand_kernel` does that literally: it walks a
strand's :class:`~repro.engine.rules.JoinPlan` and emits Python source
for one straight-line function over a *run* of driving rows -- builtins
resolved once, then one ``for`` loop over the run's queue rows (the
driving tuple is field 1), that tuple unpacked into locals, one ``for``
loop per partner literal over that table's live index dict, conditions
and assignments inlined as plain expressions, the head tuple built in
place and appended to ``out``::

    def bind(s0):
        def kernel(rows, functions, out):
            f_concatPath = functions.get('f_concatPath') or _unknown(...)
            inline0 = f_concatPath is F0
            for row in rows:
                v_S, v_Z, v_C1 = row[1]
                for _, v_D, v_Z2, v_P2, v_C2 in s0.get((v_Z,), ()):
                    v_C = (v_C1 + v_C2)
                    ...
                    out.append((v_S, v_D, v_Z, v_P, v_C))
        return kernel

So a firing is one call whatever the length of the run, and the heads
of a run of N rows are the concatenation, in order, of N one-row calls
(a traced firing makes exactly those calls, ``(row,)`` each, to keep
every head under its own driver's trace).

**One executor, three bindings.**  Nothing else runs a
:class:`~repro.engine.rules.JoinPlan`.  PSN / BSN fire a strand with
the run that just committed to its driving relation.  Semi-naive's
delta rule at position ``k`` (Algorithm 1, footnote 2) is the strand
for driver ``k``, fired with the previous iteration's new tuples and
bound (:meth:`StrandKernel.bind`, ``tables``) so the recursive literals
before ``k`` probe an ``old`` table -- where ``exclude_driver`` never
triggers, a delta is never ``old``.  A full evaluation (naive,
semi-naive's base case, aggregate views) is the strand of the rule's
*first* body literal fired with every row of its table: nothing
precedes it, so a self-join meets the driving row as its own partner.

**Inlined builtins.**  A call whose argument shapes the generator can
see -- variables and constants, ``link(..)`` terms over them, ``nil`` --
and whose builtin declares a template for that shape
(:data:`repro.ndlog.functions.INLINE`) is expanded in place as ``<fast
expression> if <builtin unchanged> and <shape test> else <the call>``.
``<builtin unchanged>`` is the invalidation rule: one identity test per
firing (``inline0`` above) of the function just resolved from
``functions`` against the function object the template was declared on,
so a per-database override, a late registration and a re-registration
are honoured at the next firing, and the call stays the definition for
every value the shape test turns away.  Nested or computed arguments
are left as calls (nothing is ever evaluated twice).

What is shared and what is per node: the source is generated and
``compile()``-d once per (rule, driver index, literal order) and kept on
the rule's shared :class:`~repro.engine.rules.CompiledRule` (one per
``Program`` object, so the code lives and dies with the program);
:meth:`StrandKernel.bind` then only calls the ``bind`` factory with one
node's index dicts, which costs a closure.  The ``capture`` variant
(provenance) appends ``(head, body facts)`` pairs instead of heads --
the matched tuples themselves, in body order -- and is generated on
first use.

Kernels never mutate tables and PSN's ``derive``/``ship`` never read
them, so collecting a firing's heads and emitting them afterwards is
join-for-join identical to emitting from inside the loop.
"""

from __future__ import annotations

import linecache
import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import EvaluationError
from repro.engine.facts import Fact
from repro.engine.rules import (
    AssignStep,
    CompiledRule,
    CondStep,
    JoinPlan,
    LiteralStep,
    compile_plan,
)
from repro.ndlog.functions import INLINE
from repro.ndlog.terms import (
    NIL,
    AggregateSpec,
    BinOp,
    Constant,
    ConstructedTuple,
    FuncCall,
    Term,
    TupleTerm,
    UnaryOp,
    Variable,
)

_INFIX = ("+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=")
#: ``&&`` / ``||`` evaluate both sides, on truth values.
_EAGER_BOOL = {"&&": "&", "||": "|"}


def _fail(message: str, rule: str):
    raise EvaluationError(message, rule=rule)


def _unknown(name: str, rule: str) -> Callable:
    """Stand-in for a builtin missing from ``functions`` at kernel
    entry: raises only if the call is actually reached."""
    def missing(*_args):
        raise EvaluationError(f"unknown function {name!r}", rule=rule)
    return missing


def _no_solutions(rows, functions, out) -> None:
    """Kernel of a strand whose literal arity differs from its table's:
    no tuple can ever match."""


#: Names every generated kernel may reference.
_NAMESPACE = {
    "ConstructedTuple": ConstructedTuple,
    "Fact": Fact,
    "_fail": _fail,
    "_unknown": _unknown,
}


def _tuple(items: List[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _literal_safe(value) -> bool:
    """Whether ``repr(value)`` is source text that evaluates back to it."""
    if isinstance(value, tuple):
        return all(_literal_safe(item) for item in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return value is None or type(value) in (int, str, bool)


class _Generator:
    """Emits one kernel's source from a strand plan."""

    def __init__(self, plan: JoinPlan, capture: bool):
        self.crule = plan.crule
        self.capture = capture
        self.lines: List[str] = []
        self.depth = 1                      # enclosing loops, the run's first
        self.locals: Dict[str, str] = {}    # bound variable -> local name
        self.functions: Dict[str, str] = {}  # builtin -> local name
        #: builtin with an expanded call site -> (the local holding its
        #: builtin-unchanged test, the name the function its templates
        #: were declared on is bound to)
        self.unchanged: Dict[str, Tuple[str, str]] = {}
        self.constants: Dict[str, object] = {}
        #: body index -> the local holding that literal's matched tuple
        #: (capture only: the firing's ground body, in body order).
        self.matched: Dict[int, str] = {plan.driver_index: "args"}
        #: Whether anything reads the driving tuple whole.
        self.keep_args = capture or any(
            isinstance(step, LiteralStep) and step.exclude_driver
            for step in plan.steps
        )
        #: One ``(pred, arity, positions, body index)`` per ``bind``
        #: parameter.
        self.slots: List[Tuple[str, int, Tuple[int, ...], int]] = []
        driver = self.crule.body[plan.driver_index]
        self._literal(LiteralStep(driver, plan.driver_index, frozenset()),
                      driver=True)
        for step in plan.steps:
            if isinstance(step, LiteralStep):
                self._literal(step)
            elif isinstance(step, AssignStep):
                self._assign(step)
            elif isinstance(step, CondStep):
                self._line(f"if not {self._expr(step.expr)}: continue")
        self._head()
        # Builtins resolve once per firing, ahead of the run -- and no
        # earlier, so late registrations are seen.
        resolve: List[str] = []
        for name, local in self.functions.items():
            resolve.append(f"        {local} = functions.get({name!r}) "
                           f"or _unknown({name!r}, {self.crule.label!r})")
            if name in self.unchanged:
                flag, declared_on = self.unchanged[name]
                resolve.append(f"        {flag} = {local} is {declared_on}")
        params = ", ".join(f"s{i}" for i in range(len(self.slots)))
        self.source = "\n".join([
            f"def bind({params}):",
            "    def kernel(rows, functions, out):",
            *resolve,
            "        for row in rows:",
            *self.lines,
            "    return kernel",
            "",
        ])

    # -- statements -----------------------------------------------------
    def _line(self, text: str) -> None:
        self.lines.append("    " * (self.depth + 2) + text)

    def _literal(self, step: LiteralStep, driver: bool = False) -> None:
        """Unpack one candidate tuple of ``step`` -- the driving tuple
        itself, or each row of a partner loop -- and apply its checks."""
        values = [self._expr(term) for term in step.getters]
        level = 0 if driver else self.depth
        targets = ["_"] * step.arity
        for pos, name in step.bind_specs:
            targets[pos] = self._local(name)
        checked = [pos for pos, _first in step.dup_checks]
        checked += [pos for pos, _term in step.residual_exprs]
        if driver:
            checked += step.positions
        for pos in checked:
            targets[pos] = f"t{level}_{pos}"
        unpack = ", ".join(targets) + ("," if step.arity == 1 else "")
        if set(targets) == {"_"}:
            unpack = "_"
        if driver:
            source = "row[1]"
            if self.keep_args:
                self._line("args = row[1]")
                source = "args"
            if unpack != "_":
                self._line(f"{unpack} = {source}")
            for pos, value in zip(step.positions, values):
                self._line(f"if {value} != t0_{pos}: continue")
        else:
            rows = f"s{len(self.slots)}"
            self.slots.append((step.literal.pred, step.arity, step.positions,
                               step.body_index))
            if step.positions:
                rows += f".get({_tuple(values)}, ())"
            if step.exclude_driver or self.capture:
                row = self.matched[step.body_index] = f"r{level}"
                self._line(f"for {row} in {rows}:")
                self.depth += 1
                if step.exclude_driver:
                    self._line(f"if {row} == args: continue")
                if unpack != "_":
                    self._line(f"{unpack} = {row}")
            else:
                self._line(f"for {unpack} in {rows}:")
                self.depth += 1
        for pos, first in step.dup_checks:
            self._line(f"if t{level}_{pos} != {targets[first]}: continue")
        for pos, term in step.residual_exprs:
            self._line(f"if {self._expr(term)} != t{level}_{pos}: continue")

    def _assign(self, step: AssignStep) -> None:
        value = self._expr(step.expr)
        if step.name in self.locals:
            # Assignment to a bound variable is an equality test.
            self._line(f"if not ({self.locals[step.name]} == {value}): "
                       "continue")
        else:
            self._line(f"{self._local(step.name)} = {value}")

    def _head(self) -> None:
        items = []
        for term in self.crule.head.args:
            if not isinstance(term, AggregateSpec):
                items.append(self._expr(term))
            elif not term.var:
                items.append("1")           # count<*> contribution
            elif term.var in self.locals:
                items.append(self.locals[term.var])
            else:
                message = f"aggregate variable {term.var!r} unbound"
                items.append(f"_fail({message!r}, {self.crule.label!r})")
        head = _tuple(items)
        if self.capture:
            body = _tuple([
                f"Fact({self.crule.body[index].pred!r}, {self.matched[index]})"
                for index in self.crule.literal_indexes
            ])
            head = f"({head}, {body})"
        self._line(f"out.append({head})")

    # -- expressions ----------------------------------------------------
    def _local(self, name: str) -> str:
        """Bind ``name``: allocate its Python local."""
        local = f"v_{name}"
        if not local.isidentifier():
            local = f"v{len(self.locals)}_"
        self.locals[name] = local
        return local

    def _constant(self, value) -> str:
        if _literal_safe(value):
            return repr(value)
        return self._declared(value, "K")

    def _declared(self, value, prefix: str = "F") -> str:
        """Bind ``value`` into the kernel's namespace; returns its name."""
        name = f"{prefix}{len(self.constants)}"
        self.constants[name] = value
        return name

    def _simple(self, term: Term) -> Optional[str]:
        """Source of ``term`` if reading it twice is reading it once: a
        bound variable or a constant."""
        if isinstance(term, Variable):
            return self.locals.get(term.name)
        if isinstance(term, Constant):
            return f"({self._constant(term.value)})"
        return None

    def _match(self, shapes, args) -> Optional[Dict[str, str]]:
        """Template slot -> argument source if the call's arguments have
        ``shapes`` (:class:`repro.ndlog.functions.Inline`)."""
        if len(shapes) != len(args):
            return None
        slots: Dict[str, str] = {}
        for shape, arg in zip(shapes, args):
            if isinstance(shape, str):
                names, terms = (shape,), (arg,)
            elif shape == NIL:
                if arg != Constant(NIL):
                    return None
                continue
            elif isinstance(arg, TupleTerm) and len(arg.args) >= len(shape):
                names, terms = shape, arg.args
            else:
                return None
            sources = [self._simple(term) for term in terms]
            if None in sources:
                return None
            slots.update(zip(names, sources))
        return slots

    def _call(self, term: FuncCall, local: str) -> str:
        """A builtin call, expanded in place when the builtin declares a
        template for the shape of its arguments."""
        args = ", ".join(self._expr(arg) for arg in term.args)
        call = f"{local}({args})"
        declared_on, templates = INLINE.get(term.name, (None, ()))
        for template in templates:
            slots = self._match(template.shapes, term.args)
            if slots is not None:
                if term.name not in self.unchanged:
                    self.unchanged[term.name] = (
                        f"inline{len(self.unchanged)}",
                        self._declared(declared_on),
                    )
                return template.expand(slots, self.unchanged[term.name][0],
                                       call)
        return call

    def _expr(self, term: Term) -> str:
        if isinstance(term, Constant):
            return self._constant(term.value)
        if isinstance(term, Variable):
            local = self.locals.get(term.name)
            message = f"unbound variable {term.name!r}"
            return local or f"_fail({message!r}, {self.crule.label!r})"
        if isinstance(term, BinOp):
            left, right = self._expr(term.left), self._expr(term.right)
            if term.op in _INFIX:
                return f"({left} {term.op} {right})"
            if term.op in _EAGER_BOOL:
                return f"(bool({left}) {_EAGER_BOOL[term.op]} bool({right}))"
            raise EvaluationError(f"unknown operator {term.op!r}",
                                  rule=self.crule.label)
        if isinstance(term, UnaryOp):
            if term.op == "-":
                return f"(-{self._expr(term.operand)})"
            if term.op == "!":
                return f"(not {self._expr(term.operand)})"
            raise EvaluationError(f"unknown unary operator {term.op!r}",
                                  rule=self.crule.label)
        if isinstance(term, FuncCall):
            local = self.functions.get(term.name)
            if local is None:
                local = term.name
                if not (local.startswith("f_") and local.isidentifier()):
                    local = f"f{len(self.functions)}_"
                self.functions[term.name] = local
            return self._call(term, local)
        if isinstance(term, TupleTerm):
            items = _tuple([self._expr(arg) for arg in term.args])
            return f"ConstructedTuple({term.pred!r}, {items})"
        if isinstance(term, AggregateSpec):
            raise EvaluationError(
                "aggregate specs cannot be evaluated directly",
                rule=self.crule.label,
            )
        raise EvaluationError(f"cannot evaluate term {term!r}",
                              rule=self.crule.label)


class StrandKernel:
    """The generated code of one strand -- a (rule, driver index,
    literal order) -- shared by every engine running that program.

    ``source(capture)`` is the generated text (also registered with
    :mod:`linecache` under ``filename(capture)``, so a traceback through
    ``<kernel SP2/link>`` shows the failing line); :meth:`bind` closes
    it over one database's live indexes.
    """

    __slots__ = ("plan", "name", "_variants")

    def __init__(self, plan: JoinPlan):
        self.plan = plan
        crule = plan.crule
        driver = crule.body[plan.driver_index].pred
        self.name = f"{crule.label}/{driver}"
        if crule.body_preds().count(driver) > 1:
            self.name += f"#{plan.driver_index}"
        #: capture flag -> (source, slots, bind factory)
        self._variants: Dict[bool, Tuple[str, List, Callable]] = {}

    def filename(self, capture: bool = False) -> str:
        return f"<kernel {self.name}{'+prov' if capture else ''}>"

    def _variant(self, capture: bool):
        variant = self._variants.get(capture)
        if variant is None:
            generator = _Generator(self.plan, capture)
            source = generator.source
            filename = self.filename(capture)
            namespace = dict(_NAMESPACE, **generator.constants)
            exec(compile(source, filename, "exec"), namespace)
            linecache.cache[filename] = (
                len(source), None, source.splitlines(True), filename
            )
            variant = (source, generator.slots, namespace["bind"])
            self._variants[capture] = variant
        return variant

    def source(self, capture: bool = False) -> str:
        return self._variant(capture)[0]

    def bind(self, db, capture: bool = False, tables=None) -> Callable:
        """The kernel ``(rows, functions, out)`` over ``db``'s tables:
        each partner literal's live index dict (or row view, for a
        scan) is captured and pre-registered here, so the first delta
        does not pay the index-build cost.  ``tables`` (body index ->
        table) makes those partner literals read another table than
        ``db``'s: semi-naive's ``old`` relations."""
        _source, slots, factory = self._variant(capture)
        driver = self.plan.crule.body[self.plan.driver_index]
        if db.table(driver.pred).arity != len(driver.args):
            return _no_solutions
        sources = []
        for pred, arity, positions, body_index in slots:
            table = (tables or {}).get(body_index)
            if table is None:
                table = db.table(pred)
            if table.arity != arity:
                return _no_solutions
            sources.append(
                table.index_for(positions) if positions
                else table.rows_view()
            )
        return factory(*sources)


def strand_kernel(crule: CompiledRule, driver_index: int,
                  stats=None) -> StrandKernel:
    """The shared kernel of one strand of ``crule``, generated on first
    request and kept on the rule, keyed by the literal order ``stats``
    implies.  The cache sits in front of planning where it can: with at
    most one partner literal the order is forced, so a hit costs one
    dict lookup; only rules with a real ordering choice are re-planned
    per engine (and still share code per order)."""
    plan = None
    order = tuple(i for i in crule.literal_indexes if i != driver_index)
    if len(order) > 1:
        plan = compile_plan(crule, driver_index=driver_index, stats=stats)
        order = plan.order
    kernel: Optional[StrandKernel] = crule.kernels.get((driver_index, order))
    if kernel is None:
        kernel = crule.kernels[(driver_index, order)] = StrandKernel(
            plan or compile_plan(crule, driver_index=driver_index, stats=stats)
        )
    return kernel
