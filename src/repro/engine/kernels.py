"""Source-generated strand kernels: one flat Python function per rule
strand, compiled once per program.

The paper executes a program as *rule strands* -- each (rule, driving
literal) pair compiled once into a fixed dataflow chain (Section 3.2,
Figures 3/5).  :func:`strand_kernel` does that literally: it walks a
strand's :class:`~repro.engine.rules.JoinPlan` and emits Python source
for one straight-line function -- the driving tuple unpacked into
locals, one ``for`` loop per partner literal over that table's live
index dict, conditions and assignments inlined as plain expressions, the
head tuple built in place and appended to ``out``::

    def bind(s0):
        def kernel(args, functions, out):
            v_S, v_Z, v_C1 = args
            f_concatPath = functions.get('f_concatPath') or _unknown(...)
            for _, v_D, v_Z2, v_P2, v_C2 in s0.get((v_Z,), ()):
                v_C = (v_C1 + v_C2)
                ...
                out.append((v_S, v_D, v_Z, v_P, v_C))
        return kernel

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
from repro.ndlog.terms import (
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


def _fail(message: str, rule: Optional[str] = None):
    raise EvaluationError(message, rule=rule)


def _unknown(name: str) -> Callable:
    """Stand-in for a builtin missing from ``functions`` at kernel
    entry: raises only if the call is actually reached."""
    def missing(*_args):
        raise EvaluationError(f"unknown function {name!r}")
    return missing


def _no_solutions(args, functions, out) -> None:
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
        self.depth = 0                      # enclosing partner loops
        self.locals: Dict[str, str] = {}    # bound variable -> local name
        self.functions: Dict[str, str] = {}  # builtin -> local name
        self.constants: Dict[str, object] = {}
        #: body index -> the local holding that literal's matched tuple
        #: (capture only: the firing's ground body, in body order).
        self.matched: Dict[int, str] = {plan.driver_index: "args"}
        #: One ``(pred, arity, positions)`` per ``bind`` parameter.
        self.slots: List[Tuple[str, int, Tuple[int, ...]]] = []
        driver = self.crule.body[plan.driver_index]
        body: List[str] = self.lines
        self._literal(LiteralStep(driver, plan.driver_index, frozenset()),
                      driver=True)
        # Builtins resolve once the driving tuple has matched (right
        # after the unpack if matching it already calls one), and no
        # earlier than this firing: late registrations are seen.
        resolve_at = 1 if self.functions else len(body)
        for step in plan.steps:
            if isinstance(step, LiteralStep):
                self._literal(step)
            elif isinstance(step, AssignStep):
                self._assign(step)
            elif isinstance(step, CondStep):
                self._line(f"if not {self._expr(step.expr)}: {self._skip()}")
        self._head()
        body[resolve_at:resolve_at] = [
            f"        {local} = functions.get({name!r}) or _unknown({name!r})"
            for name, local in self.functions.items()
        ]
        params = ", ".join(f"s{i}" for i in range(len(self.slots)))
        self.source = "\n".join([
            f"def bind({params}):",
            "    def kernel(args, functions, out):",
            *body,
            "    return kernel",
            "",
        ])

    # -- statements -----------------------------------------------------
    def _line(self, text: str) -> None:
        self.lines.append("    " * (self.depth + 2) + text)

    def _skip(self) -> str:
        return "continue" if self.depth else "return"

    def _literal(self, step: LiteralStep, driver: bool = False) -> None:
        """Unpack one candidate tuple of ``step`` -- the driving tuple
        itself, or each row of a partner loop -- and apply its checks."""
        values = [self._expr(term) for term in step.getters]
        level = 0 if driver else self.depth + 1
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
            self._line(f"{unpack} = args")
            for pos, value in zip(step.positions, values):
                self._line(f"if {value} != t0_{pos}: return")
        else:
            rows = f"s{len(self.slots)}"
            self.slots.append((step.literal.pred, step.arity, step.positions))
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
            self._line(f"if t{level}_{pos} != {targets[first]}: "
                       f"{self._skip()}")
        for pos, term in step.residual_exprs:
            self._line(f"if {self._expr(term)} != t{level}_{pos}: "
                       f"{self._skip()}")

    def _assign(self, step: AssignStep) -> None:
        value = self._expr(step.expr)
        if step.name in self.locals:
            # Assignment to a bound variable is an equality test.
            self._line(f"if not ({self.locals[step.name]} == {value}): "
                       f"{self._skip()}")
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
        name = f"K{len(self.constants)}"
        self.constants[name] = value
        return name

    def _expr(self, term: Term) -> str:
        if isinstance(term, Constant):
            return self._constant(term.value)
        if isinstance(term, Variable):
            local = self.locals.get(term.name)
            message = f"unbound variable {term.name!r}"
            return local if local else f"_fail({message!r})"
        if isinstance(term, BinOp):
            left, right = self._expr(term.left), self._expr(term.right)
            if term.op in _INFIX:
                return f"({left} {term.op} {right})"
            if term.op in _EAGER_BOOL:
                return f"(bool({left}) {_EAGER_BOOL[term.op]} bool({right}))"
            raise EvaluationError(f"unknown operator {term.op!r}")
        if isinstance(term, UnaryOp):
            if term.op == "-":
                return f"(-{self._expr(term.operand)})"
            if term.op == "!":
                return f"(not {self._expr(term.operand)})"
            raise EvaluationError(f"unknown unary operator {term.op!r}")
        if isinstance(term, FuncCall):
            local = self.functions.get(term.name)
            if local is None:
                local = term.name
                if not (local.startswith("f_") and local.isidentifier()):
                    local = f"f{len(self.functions)}_"
                self.functions[term.name] = local
            args = ", ".join(self._expr(arg) for arg in term.args)
            return f"{local}({args})"
        if isinstance(term, TupleTerm):
            items = _tuple([self._expr(arg) for arg in term.args])
            return f"ConstructedTuple({term.pred!r}, {items})"
        if isinstance(term, AggregateSpec):
            raise EvaluationError(
                "aggregate specs cannot be evaluated directly"
            )
        raise EvaluationError(f"cannot evaluate term {term!r}")


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

    def bind(self, db, capture: bool = False) -> Callable:
        """The kernel ``(args, functions, out)`` over ``db``'s tables:
        each partner literal's live index dict (or row view, for a
        scan) is captured and pre-registered here, so the first delta
        does not pay the index-build cost."""
        _source, slots, factory = self._variant(capture)
        driver = self.plan.crule.body[self.plan.driver_index]
        if db.table(driver.pred).arity != len(driver.args):
            return _no_solutions
        sources = []
        for pred, arity, positions in slots:
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
