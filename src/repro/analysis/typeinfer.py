"""Analysis 1: relation type inference and consistency (ND1xx).

Infers a type for every column of every relation by unification across
*all* head/body occurrences, program-wide -- the cross-rule
generalization of the validator's per-rule ``_address_usage``
heuristic (Definition 6.2, address type safety):

* every variable occurrence in a rule unions the column cells it
  appears in (a variable has one type per rule);
* ``@``-marked terms and -- in located programs -- position 0 of every
  literal assert the ``address`` type;
* constants assert the type of their value, arithmetic asserts
  ``number``, builtin functions assert their signatures
  (``f_concatPath`` returns a path, ``f_size`` a number,
  ``f_first``/``f_prevhop`` an address, ...);
* ``==`` comparisons and ``min``/``max`` aggregates union their two
  sides without naming a type.

A cell that ends up with incompatible evidence is a conflict:

* **ND101** (error) -- an address column also carries value-typed
  evidence (number/list/tuple/bool): the program ships tuples to
  something that is not a node address, or does arithmetic on one.
* **ND102** (warning) -- two non-address value types collide (e.g. a
  column holding both numbers and paths).

A builtin called with the wrong number of arguments is reported here
too, since this pass is the one that reads the signatures:

* **ND103** (error) -- ``f_member(X)``: the call would only fail as a
  bare ``TypeError`` from inside a strand kernel, mid-run.

Plain string atoms are compatible with addresses (addresses *are*
strings at runtime); everything else is pairwise distinct.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.common import program_is_located, rule_name
from repro.analysis.diagnostics import Diagnostic
from repro.ndlog.ast import Assignment, Condition, Literal, Program, Rule
from repro.ndlog.terms import (
    AggregateSpec,
    BinOp,
    Constant,
    FuncCall,
    NIL,
    Term,
    TupleTerm,
    UnaryOp,
    Variable,
)

ANALYSIS = "types"

# -- the type lattice ---------------------------------------------------
ADDRESS = "address"
NUMBER = "number"
BOOL = "bool"
LIST = "list"
TUPLE = "tuple"
ATOM = "atom"        # plain string; compatible with ADDRESS

#: Pairs that may share a cell without conflict (beyond identity).
_COMPATIBLE = {frozenset((ADDRESS, ATOM))}

#: Builtin signatures: name -> (argument types, return type).  ``None``
#: leaves a position unconstrained.
FUNCTION_SIGNATURES: Dict[str, Tuple[Tuple[Optional[str], ...], Optional[str]]] = {
    # Both f_concatPath arguments are path-like (a list OR a link tuple
    # -- the function merges node sequences of either), so neither is
    # constrained to LIST.
    "f_concatPath": ((None, None), LIST),
    "f_member": ((LIST, None), NUMBER),
    "f_size": ((LIST,), NUMBER),
    "f_first": ((LIST,), ADDRESS),
    "f_last": ((LIST,), ADDRESS),
    "f_init": ((None,), LIST),
    "f_append": ((LIST, None), LIST),
    "f_prepend": ((None, LIST), LIST),
    "f_reverse": ((LIST,), LIST),
    "f_prevhop": ((LIST, None), ADDRESS),
    "f_subpath": ((LIST, None), LIST),
    "f_min": ((NUMBER, NUMBER), NUMBER),
    "f_max": ((NUMBER, NUMBER), NUMBER),
}

_ARITH_OPS = frozenset(("+", "-", "*", "/", "%"))
_EQ_OPS = frozenset(("==",))
_ORDER_OPS = frozenset(("<", "<=", ">", ">="))
_BOOL_OPS = frozenset(("&&", "||"))


class _Evidence:
    """One type assertion with its provenance."""

    __slots__ = ("type", "rule", "where")

    def __init__(self, type_: str, rule: str, where: str):
        self.type = type_
        self.rule = rule
        self.where = where


class _Cells:
    """Union-find over type cells with per-root evidence lists."""

    def __init__(self):
        self._parent: Dict[object, object] = {}
        self._evidence: Dict[object, List[_Evidence]] = {}

    def find(self, token: object) -> object:
        parent = self._parent.setdefault(token, token)
        if parent == token:
            return token
        root = self.find(parent)
        self._parent[token] = root
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self._parent[rb] = ra
        merged = self._evidence.pop(rb, [])
        self._evidence.setdefault(ra, []).extend(merged)

    def assert_type(self, token: object, type_: str, rule: str,
                    where: str) -> None:
        root = self.find(token)
        self._evidence.setdefault(root, []).append(
            _Evidence(type_, rule, where)
        )

    def groups(self) -> Dict[object, List[_Evidence]]:
        out: Dict[object, List[_Evidence]] = {}
        for token in self._parent:
            root = self.find(token)
            out.setdefault(root, [])
        for root, evidence in self._evidence.items():
            out.setdefault(self.find(root), []).extend(evidence)
        return out

    def members(self, root: object) -> List[object]:
        return [t for t in self._parent if self.find(t) == root]


def _value_type(value: object) -> Optional[str]:
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, (int, float)):
        return NUMBER
    if isinstance(value, tuple):
        return LIST
    if isinstance(value, str):
        return ATOM
    return None


def _compatible(a: str, b: str) -> bool:
    return a == b or frozenset((a, b)) in _COMPATIBLE


class _Inference:
    def __init__(self, program: Program):
        self.program = program
        self.cells = _Cells()
        self.located = program_is_located(program)
        self.local_conflicts: List[Diagnostic] = []

    # -- term walking ---------------------------------------------------
    def visit(self, term: Term, rule_key: int, rule: str):
        """Digest ``term``; returns a cell token, a concrete type name,
        or ``None`` (unconstrained)."""
        if isinstance(term, Variable):
            token = ("var", rule_key, term.name)
            if term.location:
                self.cells.assert_type(token, ADDRESS, rule,
                                       f"@{term.name}")
            return token
        if isinstance(term, Constant):
            if term.location:
                return ADDRESS
            if term.value == NIL and isinstance(term.value, tuple):
                return LIST
            return _value_type(term.value)
        if isinstance(term, BinOp):
            left = self.visit(term.left, rule_key, rule)
            right = self.visit(term.right, rule_key, rule)
            if term.op in _ARITH_OPS:
                where = f"operand of {term.op!r}"
                self.constrain(left, NUMBER, rule, where)
                self.constrain(right, NUMBER, rule, where)
                return NUMBER
            if term.op in _EQ_OPS:
                self.unify(left, right, rule, f"both sides of {term.op!r}")
                return BOOL
            if term.op in _ORDER_OPS:
                self.unify(left, right, rule, f"both sides of {term.op!r}")
                return BOOL
            if term.op in _BOOL_OPS:
                return BOOL
            return None
        if isinstance(term, UnaryOp):
            operand = self.visit(term.operand, rule_key, rule)
            if term.op == "-":
                self.constrain(operand, NUMBER, rule, "operand of unary '-'")
                return NUMBER
            if term.op == "!":
                return BOOL
            return None
        if isinstance(term, FuncCall):
            signature = FUNCTION_SIGNATURES.get(term.name)
            arg_results = [self.visit(arg, rule_key, rule)
                           for arg in term.args]
            if signature is None:
                return None
            arg_types, return_type = signature
            if len(arg_results) != len(arg_types):
                self.local_conflicts.append(Diagnostic(
                    code="ND103", severity="error", analysis=ANALYSIS,
                    rule=rule,
                    message=(f"{term.name} takes {len(arg_types)} "
                             f"argument(s), {len(arg_results)} given: "
                             f"{term!r}"),
                    hint="the call would raise a TypeError when the rule "
                         "first fires",
                ))
            for position, (wanted, result) in enumerate(
                    zip(arg_types, arg_results)):
                if wanted is not None:
                    self.constrain(
                        result, wanted, rule,
                        f"argument {position + 1} of {term.name}",
                    )
            return return_type
        if isinstance(term, TupleTerm):
            for arg in term.args:
                self.visit(arg, rule_key, rule)
            return TUPLE
        if isinstance(term, AggregateSpec):
            # Handled at the literal level (needs the column cell).
            return None
        return None

    def constrain(self, result, type_: str, rule: str, where: str) -> None:
        """Assert that ``result`` (cell or concrete type) has ``type_``."""
        if result is None:
            return
        if isinstance(result, str):
            if not _compatible(result, type_):
                self.local_conflicts.append(Diagnostic(
                    code="ND102", severity="warning", analysis=ANALYSIS,
                    rule=rule,
                    message=(f"expression typed {result} where {type_} is "
                             f"expected ({where})"),
                ))
            return
        self.cells.assert_type(result, type_, rule, where)

    def unify(self, a, b, rule: str, where: str) -> None:
        """Union two results (cells union; concrete types constrain)."""
        if a is None or b is None:
            return
        if isinstance(a, str) and isinstance(b, str):
            if not _compatible(a, b):
                self.local_conflicts.append(Diagnostic(
                    code="ND102", severity="warning", analysis=ANALYSIS,
                    rule=rule,
                    message=f"{where} have incompatible types {a} and {b}",
                ))
            return
        if isinstance(a, str):
            self.cells.assert_type(b, a, rule, where)
            return
        if isinstance(b, str):
            self.cells.assert_type(a, b, rule, where)
            return
        self.cells.union(a, b)

    # -- literal / rule walking ----------------------------------------
    def visit_literal(self, literal: Literal, rule_key: int,
                      rule: str) -> None:
        for position, arg in enumerate(literal.args):
            column = ("col", literal.pred, position)
            if position == 0 and self.located:
                self.cells.assert_type(
                    column, ADDRESS, rule,
                    f"location column of {literal.pred}",
                )
            if position == 1 and literal.link_literal and self.located:
                # A link literal's first two fields are the physical
                # source and destination addresses (Definition 4).
                self.cells.assert_type(
                    column, ADDRESS, rule,
                    f"destination column of link literal {literal.pred}",
                )
            if isinstance(arg, AggregateSpec):
                if arg.func in ("count", "sum", "avg"):
                    self.cells.assert_type(
                        column, NUMBER, rule,
                        f"{arg.func}<> column of {literal.pred}",
                    )
                if arg.func in ("sum", "avg") and arg.var:
                    self.cells.assert_type(
                        ("var", rule_key, arg.var), NUMBER, rule,
                        f"{arg.func}<{arg.var}>",
                    )
                if arg.func in ("min", "max") and arg.var:
                    self.cells.union(column, ("var", rule_key, arg.var))
                continue
            result = self.visit(arg, rule_key, rule)
            self.unify(column, result, rule,
                       f"column {position + 1} of {literal.pred}")

    def visit_rule(self, rule: Rule, rule_key: int) -> None:
        name = rule_name(rule)
        self.visit_literal(rule.head, rule_key, name)
        for item in rule.body:
            if isinstance(item, Literal):
                self.visit_literal(item, rule_key, name)
            elif isinstance(item, Assignment):
                var_token = ("var", rule_key, item.var.name)
                result = self.visit(item.expr, rule_key, name)
                self.unify(var_token, result, name,
                           f"assignment to {item.var.name}")
            elif isinstance(item, Condition):
                self.visit(item.expr, rule_key, name)

    def run(self) -> Tuple[List[Diagnostic], Dict[str, List[str]]]:
        for index, rule in enumerate(self.program.rules):
            self.visit_rule(rule, index)
        for offset, fact in enumerate(self.program.facts):
            self.visit_literal(fact, -(offset + 1), "")
        if self.program.query is not None:
            self.visit_literal(self.program.query, -1_000_000, "")
        return self._report()

    # -- conflict extraction -------------------------------------------
    def _report(self) -> Tuple[List[Diagnostic], Dict[str, List[str]]]:
        diagnostics = list(self.local_conflicts)
        resolved: Dict[Tuple[str, int], str] = {}

        for root, evidence in self.cells.groups().items():
            types = {e.type for e in evidence}
            columns = sorted(
                (t[1], t[2]) for t in self.cells.members(root)
                if isinstance(t, tuple) and t[0] == "col"
            )
            # Resolve the cell's display type for the summary.
            display = self._display_type(types)
            for pred, position in columns:
                resolved[(pred, position)] = display

            conflict = self._conflict_pair(types)
            if conflict is None:
                continue
            first, second = conflict
            involves_address = ADDRESS in (first, second)
            code = "ND101" if involves_address else "ND102"
            severity = "error" if involves_address else "warning"
            witness_a = next(e for e in evidence if e.type == first)
            witness_b = next(e for e in evidence if e.type == second)
            where = self._describe_columns(columns)
            diagnostics.append(Diagnostic(
                code=code, severity=severity, analysis=ANALYSIS,
                rule=witness_b.rule or witness_a.rule,
                pred=columns[0][0] if columns else "",
                message=(
                    f"{where} is used as {first} ({witness_a.where}"
                    f"{self._in_rule(witness_a)}) and as {second} "
                    f"({witness_b.where}{self._in_rule(witness_b)})"
                ),
                hint=("address and value types cannot mix (Definition 6.2); "
                      "check which rule ships or computes the wrong column"
                      if involves_address else
                      "the same column carries structurally different "
                      "values in different rules"),
            ))

        summary = self._summary(resolved)
        return diagnostics, summary

    @staticmethod
    def _in_rule(evidence: _Evidence) -> str:
        return f" in rule {evidence.rule}" if evidence.rule else ""

    @staticmethod
    def _describe_columns(columns) -> str:
        if not columns:
            return "a rule-local variable"
        pred, position = columns[0]
        text = f"column {position + 1} of {pred!r}"
        if len(columns) > 1:
            text += f" (unified with {len(columns) - 1} other column(s))"
        return text

    @staticmethod
    def _conflict_pair(types: Set[str]):
        ordered = sorted(types)
        for i, first in enumerate(ordered):
            for second in ordered[i + 1:]:
                if not _compatible(first, second):
                    # Report the address side first when present.
                    if second == ADDRESS:
                        return second, first
                    return first, second
        return None

    @staticmethod
    def _display_type(types: Set[str]) -> str:
        concrete = set(types)
        if not concrete:
            return "any"
        if concrete == {ADDRESS, ATOM} or concrete == {ADDRESS}:
            return ADDRESS
        if len(concrete) == 1:
            return next(iter(concrete))
        return "conflict"

    def _summary(self, resolved) -> Dict[str, List[str]]:
        by_pred: Dict[str, Dict[int, str]] = {}
        for (pred, position), display in resolved.items():
            by_pred.setdefault(pred, {})[position] = display
        out: Dict[str, List[str]] = {}
        for pred, columns in sorted(by_pred.items()):
            width = max(columns) + 1 if columns else 0
            out[pred] = [columns.get(i, "any") for i in range(width)]
        return {"columns": out}


def analyze(program: Program):
    """Run type inference; returns ``(diagnostics, per-relation types)``."""
    return _Inference(program).run()
