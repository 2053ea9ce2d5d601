"""Generated strand kernels (``repro.engine.kernels``): the one join
executor of all four engines.

The interpreter (``solve``, kept in ``tests/interpreter.py``) is the
one independent reference; the property tests here hold the kernels to
its heads -- on every builtin program, on random rule shapes, and under
the three *bindings* the engines use: a strand driven by one tuple
(PSN / BSN), a rule's first literal driven by its whole table (naive,
semi-naive's base case) and a delta literal driving with ``old`` tables
bound in ahead of it (semi-naive's iterations).  The unit tests pin
what the generator must preserve: when a kernel raises and whose name
the error carries, live index capture, late function registration,
once-per-program compilation, readable tracebacks, and independence
from the hash seed.  Two sections follow the calling convention (a
kernel takes a run; a run's heads are its rows' heads, concatenated)
and the inlined builtins (every template equals its function; the
function in ``db.functions`` decides).
"""

import gc
import json
import os
import random
import subprocess
import sys
import traceback
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.engine import Database
from repro.engine.facts import Fact
from repro.engine.kernels import strand_kernel
from repro.engine.psn import PSNEngine
from repro.engine.rules import CompiledRule, unify_literal
from repro.engine.table import Table
from repro.errors import EvaluationError
from repro.ndlog import parse, programs
from repro.ndlog.ast import Condition, Literal, Rule
from repro.ndlog.functions import (
    INLINE,
    NIL,
    REGISTRY,
    f_concat_path,
    f_first,
    f_member,
    node_sequence,
    register,
)
from repro.ndlog.terms import BinOp, Constant, ConstructedTuple, Variable
from repro.opt.costbased import StatsCatalog

from interpreter import (
    Snapshot,
    instantiate_head,
    interpret,
    interpreted_kernel,
    solve,
)
from test_obs import RecordingObserver
from test_pretty import random_programs

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

BUILTIN_PROGRAMS = [
    programs.shortest_path, programs.shortest_path_safe,
    programs.shortest_path_dynamic, programs.magic_dst,
    programs.magic_src_dst, programs.multi_query_magic,
    programs.reachability, programs.distance_vector,
    programs.transitive_closure, programs.transitive_closure_nonlinear,
    programs.same_generation,
]

NODES = ["a", "b", "c"]
PATHS = [(), ("a",), ("a", "b"), ("b", "c"), ("c", "a", "b")]


# ----------------------------------------------------------------------
# Kernel against interpreter, one strand
# ----------------------------------------------------------------------
def outcome(thunk):
    """Heads as a multiset, or the exception class when evaluation
    raised."""
    try:
        return Counter(thunk())
    except AssertionError:
        raise
    except Exception as error:  # noqa: BLE001 -- parity of *any* failure
        return type(error)


def strand_outcomes(crule, driver_index, db, args):
    """Heads one driving tuple derives through the kernel, the capture
    kernel and the interpreter."""
    functions = db.functions
    literal = crule.body[driver_index]
    fact = Fact(literal.pred, args)
    sources = {
        index: db.table(crule.body[index].pred)
        for index in crule.literal_indexes if index != driver_index
    }
    code = strand_kernel(crule, driver_index, StatsCatalog())

    def via_kernel():
        out = []
        code.bind(db)([fact], functions, out)
        return out

    def via_capture_kernel():
        out = []
        code.bind(db, capture=True)([fact], functions, out)
        for _head, body in out:
            # The ground body: one stored tuple per body literal, in
            # body order, the driving tuple at its own position.
            assert [f.pred for f in body] == list(crule.body_preds())
            assert all(f.args in db.table(f.pred) for f in body), body
            assert body[crule.literal_indexes.index(driver_index)] == fact
        return [head for head, _body in out]

    def via_solve():
        seed = unify_literal(literal, args, {}, functions)
        if seed is None:
            return []
        return [
            instantiate_head(crule, bindings, functions)
            for bindings in solve(crule, sources, functions, bindings=seed,
                                  skip_index=driver_index, skip_fact=fact)
        ]

    return outcome(via_kernel), outcome(via_capture_kernel), outcome(via_solve)


def assert_strands_agree(crule, db):
    """Every strand of ``crule``, driven by every stored tuple of its
    driving relation.  The two kernel variants come from one plan, so
    they must agree outright (heads, or the same failure); the
    interpreter evaluates strictly left to right while a plan hoists
    each condition to where its inputs are bound, so either may fail
    where the other does not and their heads are compared when both
    succeed.  *When* a kernel raises is pinned by the directed cases
    under "Error paths"."""
    compared = 0
    for driver_index in crule.literal_indexes:
        table = db.table(crule.body[driver_index].pred)
        for args in table.rows():
            kernel, captured, interpreted = strand_outcomes(
                crule, driver_index, db, args)
            context = (crule, driver_index, args)
            assert captured == kernel, context
            if isinstance(kernel, Counter) and isinstance(interpreted,
                                                           Counter):
                assert kernel == interpreted, context
                compared += sum(kernel.values())
    return compared


def column_values(name):
    """Plausible values for a column, from the variable naming the
    builtin programs use (costs and ids are numbers, ``P*`` are path
    vectors, everything else an address)."""
    if name.startswith("C") or name == "Qid":
        return [1, 2, 3]
    if name.startswith("P"):
        return PATHS
    return NODES


@pytest.mark.parametrize("builder", BUILTIN_PROGRAMS,
                         ids=lambda b: b.__name__)
@given(data=st.data())
@settings(max_examples=8, **SETTINGS)
def test_kernels_match_the_interpreter_on_builtin_programs(
        builder, data):
    program = builder()
    db = Database.for_program(program)
    columns = {}
    for rule in program.rules:
        for literal in (rule.head, *rule.body_literals):
            for position, term in enumerate(literal.args):
                name = getattr(term, "name", None) or getattr(term, "var", "")
                columns.setdefault((literal.pred, position), name or "X")
    for pred, table in db.tables.items():
        row = st.tuples(*[
            st.sampled_from(column_values(columns.get((pred, i), "X")))
            for i in range(table.arity)
        ])
        for args in data.draw(st.lists(row, max_size=8), label=pred):
            table.insert(args)
    for rule in program.rules:
        assert_strands_agree(CompiledRule(rule), db)


def test_builtin_program_property_is_not_vacuous():
    """A dense instance derives through every rule of shortest-path."""
    program = programs.shortest_path_safe()
    db = Database.for_program(program)
    for a in NODES:
        for b in NODES:
            if a != b:
                db.table("link").insert((a, b, 1))
                db.table("path").insert((a, b, b, (a, b), 1))
                db.table("spCost").insert((a, b, 1))
    for rule in program.rules:
        assert assert_strands_agree(CompiledRule(rule), db) > 0


POOL = NODES + ["node1", 0, 1, 2, ("a", "b"), ()]


@given(program=random_programs(), data=st.data())
@settings(max_examples=120, **SETTINGS)
def test_kernels_match_the_interpreter_on_random_rules(program, data):
    """Random rule shapes from the surface grammar: self-joins,
    ``p(X, X)``, constants and expressions in literal arguments,
    assignments to bound variables, aggregate heads, unknown functions."""
    for rule in program.rules:
        arities = {}
        for literal in rule.body_literals:
            arities.setdefault(literal.pred, set()).add(len(literal.args))
        if any(len(seen) > 1 for seen in arities.values()):
            continue    # the schema rejects the rule before any engine
        pool = POOL + [
            term.value
            for literal in rule.body_literals for term in literal.args
            if isinstance(term, Constant)
        ]
        db = Database()
        for pred, (arity,) in arities.items():
            table = db.tables[pred] = Table(pred, arity)
            row = st.tuples(*[st.sampled_from(pool)] * arity)
            for args in data.draw(st.lists(row, max_size=6), label=pred):
                table.insert(args)
        assert_strands_agree(CompiledRule(rule), db)


CHAIN = random.Random(5)


@pytest.mark.parametrize("text,rows", [
    # self-join: the driving fact is excluded before its own position
    ("T: tc(X, Z) :- tc(X, Y), tc(Y, Z).",
     {"tc": [("a", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "a")]}),
    # repeated variable and constant in the driver and in a partner
    ("R: out(@A, B) :- p(@A, A, c7), q(@B, B, A).",
     {"p": [("x", "x", "c7"), ("x", "y", "c7"), ("x", "x", "c8")],
      "q": [("k", "k", "x"), ("k", "j", "x"), ("m", "m", "x")]}),
    # expressions: prefix-evaluable lookup, residual, driver residual
    ("R: out(@A, C) :- p(@A, B, B + 1), q(@A, B * 2, C, C + B).",
     {"p": [("n", 1, 2), ("n", 1, 3), ("n", 2, 3)],
      "q": [("n", 2, 5, 6), ("n", 2, 5, 7), ("n", 4, 1, 3)]}),
    # assignment to a bound variable is an equality test
    ("R: out(@A, B) :- p(@A, B, C), B := C + 1.",
     {"p": [("n", 2, 1), ("n", 3, 1)]}),
    # count<*> and eager boolean operators in a condition
    ("R: cnt(@A, count<*>) :- p(@A, B, C), B > 1 || C > 1, !(B == C).",
     {"p": [("n", 2, 1), ("n", 1, 1), ("n", 2, 2), ("n", 0, 3)]}),
    # a three-way chain join with a condition across its ends
    ("R: out(@A, D) :- p(@A, B), q(@B, C), r(@C, D), B != D.",
     {pred: [(f"{x}{CHAIN.randrange(4)}", f"{y}{CHAIN.randrange(4)}")
             for _ in range(12)]
      for pred, x, y in (("p", "a", "b"), ("q", "b", "c"), ("r", "c", "b"))}),
])
def test_generator_semantics_on_directed_cases(text, rows):
    program = parse(text)
    db = Database.for_program(program)
    for pred, pred_rows in rows.items():
        db.load_facts(pred, pred_rows)
    assert assert_strands_agree(CompiledRule(program.rules[0]), db) > 0


# ----------------------------------------------------------------------
# The set-oriented engines' bindings of the same kernels
# ----------------------------------------------------------------------
def kernel_heads(crule, driver_index, db, rows, capture, tables=None):
    """Heads the strand derives from the driving ``rows`` -- the capture
    kernel's checked to carry one ground fact per body literal."""
    pred = crule.body[driver_index].pred
    kernel = strand_kernel(crule, driver_index, StatsCatalog()).bind(
        db, capture, tables)
    out = []
    kernel([(pred, args) for args in rows], db.functions, out)
    if not capture:
        return Counter(out)
    for _head, body in out:
        assert [f.pred for f in body] == list(crule.body_preds())
    return Counter(head for head, _body in out)


def interpreted_heads(crule, sources, functions):
    """The rule body evaluated in full over ``sources``, no driver."""
    return Counter(
        instantiate_head(crule, bindings, functions)
        for bindings in solve(crule, sources, functions)
    )


PAIRS = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
                 max_size=9, unique=True)


@pytest.mark.parametrize("capture", [False, True])
@given(rows=PAIRS)
@settings(max_examples=40, **SETTINGS)
def test_a_lead_strand_over_a_whole_table_is_the_rule_in_full(capture, rows):
    """Naive's binding (and semi-naive's base case): the first body
    literal driven by every row its table holds.  Nothing precedes it,
    so no partner excludes the driving row -- in a self-join that row
    must match itself as its own partner."""
    program = parse("T: tc(X, Z) :- tc(X, Y), tc(Y, Z).")
    db = Database.for_program(program)
    db.load_facts("tc", rows + [("a", "a")])
    crule = CompiledRule(program.rules[0])
    table = db.table("tc")
    heads = kernel_heads(crule, 0, db, table.rows(), capture)
    assert heads == interpreted_heads(crule, {0: table, 1: table},
                                      db.functions)
    # (a, a) joined with itself, once.
    assert heads[("a", "a")] == 1 + sum(
        1 for x, y in set(rows) if (x, y) != ("a", "a")
        and x == "a" and (y, "a") in table)


MUTUAL = """
A1: a(X, Z) :- e(X, Z).
A2: a(X, Z) :- b(X, Y), a(Y, Z).
B1: b(X, W) :- a(X, Y), b(Y, Z), a(Z, W), X != W.
"""


def assert_delta_strands_agree(capture, old_a, new_a, old_b, new_b):
    """Every delta rule of ``MUTUAL`` over one iteration's state; the
    number of heads compared."""
    program = parse(MUTUAL)
    db = Database.for_program(program)
    old = {"a": set(old_a), "b": set(old_b)}
    delta = {"a": set(new_a) - old["a"], "b": set(new_b) - old["b"]}
    shadow = {pred: Table(pred, 2) for pred in old}
    for pred in old:
        db.load_facts(pred, old[pred] | delta[pred])
        for args in old[pred]:
            shadow[pred].insert(args)
    derived = 0
    for rule in program.rules[1:]:
        crule = CompiledRule(rule)
        for position in crule.literal_indexes:
            pred = crule.body[position].pred
            before = [i for i in crule.literal_indexes if i < position]
            heads = kernel_heads(
                crule, position, db, sorted(delta[pred]), capture,
                tables={i: shadow[crule.body[i].pred] for i in before})
            sources = {
                i: db.table(crule.body[i].pred)
                for i in crule.literal_indexes if i > position
            }
            sources[position] = Snapshot(delta[pred])
            for i in before:
                sources[i] = Snapshot(old[crule.body[i].pred])
            assert heads == interpreted_heads(crule, sources, db.functions), (
                crule, position)
            derived += sum(heads.values())
    return derived


@pytest.mark.parametrize("capture", [False, True])
@given(old_a=PAIRS, new_a=PAIRS, old_b=PAIRS, new_b=PAIRS)
@settings(max_examples=40, **SETTINGS)
def test_a_delta_strand_with_old_partners_is_algorithm_1s_delta_rule(
        capture, old_a, new_a, old_b, new_b):
    """Semi-naive's binding, on a mutually recursive pair: the strand
    of delta position ``k`` driven by the previous iteration's new
    tuples, recursive literals before ``k`` bound to ``old`` tables,
    those after it reading everything so far.  The interpreter runs
    footnote 2's rule as written, over snapshot sets."""
    assert_delta_strands_agree(capture, old_a, new_a, old_b, new_b)


def test_the_delta_strand_property_is_not_vacuous():
    assert assert_delta_strands_agree(
        False,
        old_a=[("a", "b"), ("b", "c")], new_a=[("c", "a"), ("b", "b")],
        old_b=[("a", "a"), ("c", "b")], new_b=[("b", "a"), ("a", "c")]) > 0


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def run_program(text, facts, generated, functions=None):
    """Run ``text`` through PSN on its generated kernels, or with every
    strand swapped over to the tests' interpreter."""
    program = parse(text)
    engine = PSNEngine(program)
    if not generated:
        interpret(engine)
    if functions:
        engine.db.functions.update(functions)
    for pred, rows in facts.items():
        for row in rows:
            engine.insert(pred, row)
    engine.run()
    return engine


@pytest.mark.parametrize("generated", [True, False])
class TestErrorPathParity:
    def test_unknown_function_raises_only_when_evaluated(self, generated):
        text = "R: out(@A, B) :- p(@A, X), X > 5, B := f_nope(X)."
        # The guard fails first: the call is never reached, nothing raises.
        engine = run_program(text, {"p": [("n", 1)]}, generated)
        assert engine.db.rows("out") == []
        with pytest.raises(EvaluationError,
                           match="unknown function") as raised:
            run_program(text, {"p": [("n", 9)]}, generated)
        if generated:
            assert raised.value.rule == "R"

    def test_unbound_aggregate_variable(self, generated):
        text = "R: low(@A, min<Z>) :- p(@A, X)."
        with pytest.raises(EvaluationError,
                           match="aggregate variable 'Z'") as raised:
            run_program(text, {"p": [("n", 1)]}, generated)
        assert raised.value.rule == "R"

    def test_unbound_variable_raises_only_when_reached(self, generated):
        text = "R: out(@A, B) :- p(@A, X), X > 5, B := Y + 1."
        # Behind a failed condition the expression is never evaluated.
        engine = run_program(text, {"p": [("n", 1)]}, generated)
        assert engine.db.rows("out") == []
        with pytest.raises(EvaluationError,
                           match="unbound variable 'Y'") as raised:
            run_program(text, {"p": [("n", 9)]}, generated)
        if generated:
            assert raised.value.rule == "R"

    def test_unbound_variable_in_a_partner_lookup(self, generated):
        text = "R: out(@A, B) :- p(@A, X), q(@A, Y + 1, B)."
        # No candidate tuple, nothing reached.
        assert run_program(text, {"p": [("n", 1)]},
                           generated).db.rows("out") == []
        with pytest.raises(EvaluationError, match="unbound variable 'Y'"):
            run_program(text, {"p": [("n", 1)], "q": [("n", 1, 2)]},
                        generated)

    def test_boolean_operators_evaluate_both_sides(self, generated):
        calls = []

        def f_spy(value):
            calls.append(value)
            return 1

        text = "R: out(@A) :- p(@A, X), X > 5 && f_spy(X) == 1."
        engine = run_program(text, {"p": [("n", 1)]}, generated,
                             functions={"f_spy": f_spy})
        assert engine.db.rows("out") == []
        assert calls == [1]     # right side ran although the left failed
        text = "R: out(@A) :- p(@A, X), X < 5 || f_spy(X) == 1."
        engine = run_program(text, {"p": [("n", 2)]}, generated,
                             functions={"f_spy": f_spy})
        assert engine.db.rows("out") == [("n",)]
        assert calls == [1, 2]


def test_an_unknown_operator_fails_at_generation():
    """No surface syntax spells one, a rewrite could: the generator
    refuses it when the strand is bound, before any tuple arrives."""
    program = parse("R9: out(@A) :- p(@A, X), X > 1.")
    rule = program.rules[0]
    power = Condition(BinOp("**", Variable("X"), Constant(2)))
    program.rules[0] = Rule(rule.head, (rule.body[0], power), rule.label)
    with pytest.raises(EvaluationError, match="unknown operator") as raised:
        PSNEngine(program)
    assert raised.value.rule == "R9"


def test_a_partner_of_another_arity_has_no_solutions():
    program = parse("R: out(@A, B) :- p(@A), q(@A, B).")
    db = Database.for_program(program)
    db.tables["q"] = Table("q", 3)
    db.load_facts("q", [("n", 1, 2)])
    engine = PSNEngine(program, db=db)
    engine.insert("p", ("n",))
    engine.run()
    assert engine.db.rows("out") == []


def test_kernel_traceback_shows_the_generated_line():
    text = "R7: out(@A, B) :- p(@A, X), B := X + nope."
    with pytest.raises(TypeError):
        try:
            run_program(text, {"p": [("n", 1)]}, generated=True)
        except TypeError:
            shown = traceback.format_exc()
            raise
    assert 'File "<kernel R7/p>"' in shown
    assert "v_B = (v_X + 'nope')" in shown


# ----------------------------------------------------------------------
# What is captured, what is shared
# ----------------------------------------------------------------------
def test_kernels_survive_table_clear_and_later_inserts():
    program = programs.transitive_closure()
    engine = PSNEngine(program)
    for edge in [("a", "b"), ("b", "c")]:
        engine.insert("edge", edge)
    engine.run()
    assert ("a", "c") in engine.db.table("tc")
    for table in engine.db.tables.values():
        table.clear()
    for edge in [("x", "y"), ("y", "z"), ("z", "w")]:
        engine.insert("edge", edge)
    engine.run()
    assert set(engine.db.rows("tc")) == {
        ("x", "y"), ("y", "z"), ("z", "w"), ("x", "z"), ("y", "w"),
        ("x", "w"),
    }


def test_functions_registered_after_construction_are_seen():
    program = parse("R: out(@A, B) :- p(@A, X), B := f_late(X).")
    engine = PSNEngine(program)
    engine.insert("p", ("n", 1))
    with pytest.raises(EvaluationError, match="unknown function 'f_late'"):
        engine.run()
    engine.db.functions["f_late"] = lambda value: value + 41
    engine.insert("p", ("n", 2))
    engine.run()
    assert engine.db.rows("out") == [("n", 43)]


def test_kernels_compile_once_per_program_and_die_with_it():
    def shared_code(program):
        first, second = PSNEngine(program), PSNEngine(program)
        assert first.compiled[0] is second.compiled[0]
        codes = []
        for pred, strands in first.strands.items():
            for one, other in zip(strands, second.strands[pred]):
                assert one.code is other.code
                assert one.kernel is not other.kernel  # bound per database
                codes.append(one.code)
        return codes

    program = programs.shortest_path_safe()
    codes = shared_code(program)
    # Another Program object compiles its own, and nothing
    # process-global keeps the first one's code alive.
    assert not set(codes) & set(shared_code(programs.shortest_path_safe()))
    probe = weakref.ref(codes[0].plan.crule)    # holds the kernels
    del codes, program
    gc.collect()
    assert probe() is None


def test_strand_repr_and_kernel_source():
    engine = PSNEngine(programs.shortest_path_safe())
    strand = next(s for s in engine.strands["link"] if s.crule.label == "SP2")
    assert "<kernel SP2/link>" in repr(strand)
    source = strand.kernel_source
    assert "def kernel(rows, functions, out):" in source
    assert "v_C = (v_C1 + v_C2)" in source


def test_explain_kernels_section_is_opt_in():
    compiled = repro.compile(programs.shortest_path_safe(),
                             passes=["aggsel", "localize"])
    plain = compiled.explain()
    assert "-- strand kernels --" not in plain
    text = compiled.explain(kernels=True)
    assert text.startswith(plain)
    section = text[len(plain):]
    assert "-- strand kernels --" in section
    for rule in compiled.program.rules:
        for literal in rule.body:
            if isinstance(literal, Literal):
                assert f"<kernel {rule.label}/{literal.pred}" in section
    assert "def kernel(rows, functions, out):" in section


# ----------------------------------------------------------------------
# The run convention: kernel(rows, functions, out)
# ----------------------------------------------------------------------
RUN_CASES = [
    # self-join: both strands, the early one excluding its driver
    ("T: tc(X, Z) :- tc(X, Y), tc(Y, Z).",
     {"tc": [("a", "a"), ("a", "b"), ("d", "e"), ("b", "a"), ("b", "c")]}),
    # constant, repeated variable and residual checks on the driver:
    # rows that do not match sit in the middle of the run
    ("R: out(@A, C) :- p(@A, A, c7, B, B + 1), q(@A, C).",
     {"p": [("x", "x", "c7", 1, 2), ("x", "y", "c7", 1, 2),
            ("y", "y", "c7", 1, 2), ("y", "y", "c8", 1, 2),
            ("y", "y", "c7", 1, 3), ("z", "z", "c7", 0, 1)],
      "q": [("x", 1), ("x", 2), ("y", 3), ("n", 4)]}),
    # inlined builtins inside the run loop
    ("R: hop(@S, P) :- p(@S, P1, D), f_member(P1, D) == 0, "
     "P := f_concatPath(P1, link(@S, D, 1)).",
     {"p": [("a", ("a",), "b"), ("a", ("a", "b"), "b"), ("a", (), "c"),
            ("b", ("a", "b"), "c")]}),
]


@pytest.mark.parametrize("text,rows", RUN_CASES)
@pytest.mark.parametrize("capture", [False, True])
def test_a_run_is_the_concatenation_of_its_rows(text, rows, capture):
    """One call over N driving rows appends, in order, what N one-row
    calls append -- so firing a strand once per run (plain) and once
    per row (traced) derive the same heads in the same order."""
    program = parse(text)
    db = Database.for_program(program)
    for pred, pred_rows in rows.items():
        db.load_facts(pred, pred_rows)
    crule = CompiledRule(program.rules[0])
    derived = 0
    for driver_index in crule.literal_indexes:
        pred = crule.body[driver_index].pred
        # Queue rows as the engine hands them over, the table's rows
        # twice over so the run revisits every bucket.
        run = [(pred, args, 1, False, False, None)
               for args in db.table(pred).rows() * 2]
        kernel = strand_kernel(crule, driver_index, StatsCatalog()).bind(
            db, capture)
        whole, parts, empty = [], [], []
        kernel(run, db.functions, whole)
        shares = []
        for row in run:
            before = len(parts)
            kernel((row,), db.functions, parts)
            shares.append(len(parts) - before)
        kernel((), db.functions, empty)
        assert whole == parts
        assert empty == []
        assert 0 in shares[1:-1]        # a mismatch inside the run
        reference = []
        interpreted_kernel(crule, driver_index, db, capture)(
            run, db.functions, reference)
        assert Counter(whole) == Counter(reference)
        derived += len(whole)
    assert derived > 0


def test_traced_run_keeps_each_head_under_its_own_drivers_trace():
    """A traced firing calls the same kernel row by row: with rows that
    derive two, no and one head, every head's trace is its driver's."""
    program = parse("R: out(@A, B, C) :- p(@A, B), q(@A, C), B < C.")
    engine = PSNEngine(program, batch_size=64)
    engine.inject_run("q", [("n", 2), ("n", 3)])
    engine.run()
    fake = engine.observer = RecordingObserver()
    engine.inject_run("p", [("n", 1), ("n", 9), ("n", 2)])
    engine.run()
    minted = {event[2]: event[4] for event in fake.events
              if event[0] == "inject"}
    derived = [event for event in fake.events if event[0] == "derive"]
    assert sorted(event[2] for event in derived) == [
        ("n", 1, 2), ("n", 1, 3), ("n", 2, 3)]
    assert len(set(minted.values())) == 3
    for _kind, _pred, head, _sign, trace in derived:
        assert trace == minted[("n", head[1])]
    assert fake.inferred == {("R", "p"): 3}   # one firing, three heads


# ----------------------------------------------------------------------
# Inlined builtins
# ----------------------------------------------------------------------
def result_of(thunk):
    """A value with its exact spelling (``1`` is not ``1.0``), or the
    exception's type and message."""
    try:
        value = thunk()
    except Exception as error:  # noqa: BLE001 -- parity of *any* failure
        return (type(error), str(error))
    return (value, repr(value))


#: Few values, several of them equal under ``==`` and spelled
#: differently, so junctions (``Z == P[0]``) and hits are common.
SCALARS = st.sampled_from(["a", "b", 1, 1.0, True, None])
PATH_VALUES = st.lists(st.sampled_from(["a", "b", 1, 1.0]),
                       max_size=4).map(tuple)
LINK_VALUES = st.builds(ConstructedTuple, st.just("link"),
                        st.lists(SCALARS, max_size=3).map(tuple))
#: What a variable can hold at a call site: paths (``nil`` among
#: them), link tuples (too short ones too), scalars, non-lists.
ANY_VALUE = st.one_of(PATH_VALUES, PATH_VALUES, LINK_VALUES, SCALARS,
                      st.sampled_from(["ab", ["a", "b"], {"a"}]))
#: A link term's fields are node ids far more often than not.
LINK_FIELD = st.one_of(SCALARS, SCALARS, SCALARS, ANY_VALUE)
TEMPLATES = [
    pytest.param(declared_on, template, id=f"{name}-{index}")
    for name, (declared_on, templates) in sorted(INLINE.items())
    for index, template in enumerate(templates)
]


def slot_names(template):
    return [slot for shape in template.shapes if shape != NIL
            for slot in ([shape] if isinstance(shape, str) else shape)]


def call_site(template, values):
    """One call site of ``template`` with ``values`` (slot -> value) as
    its arguments: the source the generator would emit, reading slot
    ``S`` from a variable ``S``, and what the plain call receives."""
    actual = []
    for shape in template.shapes:
        if isinstance(shape, str):
            actual.append(values[shape])
        elif shape == NIL:
            actual.append(NIL)
        else:
            fields = tuple(values[slot] for slot in shape)
            actual.append(ConstructedTuple("link", fields + (7,)))
    source = template.expand({slot: slot for slot in values},
                             "unchanged", "call()")
    return source, actual


@pytest.mark.parametrize("declared_on,template", TEMPLATES)
@given(data=st.data())
@settings(max_examples=200, **SETTINGS)
def test_every_template_equals_the_function_it_is_declared_on(
        declared_on, template, data):
    values = {
        slot: data.draw(ANY_VALUE if slot in template.shapes else LINK_FIELD,
                        label=slot)
        for slot in slot_names(template)
    }
    source, actual = call_site(template, values)
    expected = result_of(lambda: declared_on(*actual))
    for unchanged in (True, False):
        namespace = dict(values, unchanged=unchanged,
                         call=lambda: declared_on(*actual))
        got = result_of(lambda: eval(source, namespace))  # noqa: S307
        assert got == expected, (source, values, unchanged)


@pytest.mark.parametrize("declared_on,template", TEMPLATES)
def test_every_template_has_a_fast_arm_that_is_taken(declared_on, template):
    """On the shape it is written for -- a path in every slot -- a
    template answers without the call, and only while the builtin is
    unchanged."""
    values = dict.fromkeys(slot_names(template), ("a", "b"))
    source, actual = call_site(template, values)
    calls = []

    def call():
        calls.append(1)
        return declared_on(*actual)

    namespace = dict(values, unchanged=True, call=call)
    assert eval(source, namespace) == declared_on(*actual)  # noqa: S307
    assert calls == []
    namespace["unchanged"] = False
    assert eval(source, namespace) == declared_on(*actual)  # noqa: S307
    assert calls == [1]


LINE = [("a", "b", 1), ("b", "a", 1), ("b", "c", 1), ("c", "b", 1),
        ("c", "d", 1), ("d", "c", 1)]


def short_member(path, item):
    """An ``f_member`` that also turns away every path of three nodes:
    ``shortest_path_safe`` then stops at two hops."""
    return 1 if item in path or len(path) > 2 else 0


def spy_on(function):
    calls = []

    def spy(*args):
        calls.append(args)
        return function(*args)

    return spy, calls


def python_calls(thunk):
    """Python-level calls made while ``thunk`` runs, by code object --
    kernel entries under ``"kernel"``."""
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith("<kernel "):
                if code.co_name == "kernel":
                    counts["kernel"] += 1
            else:
                counts[code] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return counts


def run_line(engine, links=LINE):
    for link in links:
        engine.insert("link", link)
    engine.run()
    return {row[:2] for row in engine.db.rows("shortestPath")}


def test_two_engines_of_one_program_each_derive_per_their_own_function():
    """The generated code is shared per ``Program``; which arm runs is
    decided per firing, from the ``functions`` of the engine firing."""
    program = programs.shortest_path_safe()
    plain, overridden = PSNEngine(program), PSNEngine(program)
    assert plain.strands["link"][0].code is overridden.strands["link"][0].code
    overridden.db.functions["f_member"] = short_member
    reference = interpret(PSNEngine(programs.shortest_path_safe()))
    reference.db.functions["f_member"] = short_member
    pairs = run_line(plain)
    assert ("a", "d") in pairs and len(pairs) == 12
    assert run_line(overridden) == run_line(reference) == pairs - {
        ("a", "d"), ("d", "a")}
    assert (sorted(overridden.db.rows("path"))
            == sorted(reference.db.rows("path")))


def test_an_override_between_runs_is_seen_at_the_next_firing():
    engine = PSNEngine(programs.shortest_path_safe(), batch_size=8)
    member = f_member.__code__
    assert python_calls(lambda: run_line(engine, LINE[:4]))[member] == 0
    spy, calls = spy_on(f_member)
    engine.db.functions["f_member"] = spy
    counts = python_calls(lambda: run_line(engine, LINE[4:]))
    assert calls and counts[member] == len(calls)
    # Restoring the builtin re-enables the fast arm.
    engine.db.functions["f_member"] = f_member
    del calls[:]
    more = [("d", "e", 1), ("e", "d", 1)]
    assert python_calls(lambda: run_line(engine, more))[member] == 0
    assert calls == []
    assert ("a", "e") in {row[:2] for row in engine.db.rows("shortestPath")}


def test_a_reregistration_before_compile_is_honoured():
    """The identity test is against the function the template was
    declared on, not against whatever the registry holds by then."""
    try:
        register("f_member")(short_member)
        engine = PSNEngine(programs.shortest_path_safe())
        assert engine.db.functions["f_member"] is short_member
        assert INLINE["f_member"][0] is f_member
        pairs = run_line(engine)
    finally:
        REGISTRY["f_member"] = f_member
    assert len(pairs) == 10 and ("a", "d") not in pairs
    assert len(run_line(PSNEngine(programs.shortest_path_safe()))) == 12


@pytest.mark.parametrize("body,inlined", [
    ("B := f_member(P, X)", True),
    ("B := f_member(P, \"a\")", True),              # a constant argument
    ("B := f_member(nil, X)", True),
    ("B := f_first(P)", True),
    ("B := f_concatPath(link(@A, X, 1), P)", True),
    ("B := f_concatPath(P, link(@X, A, X))", True),
    ("B := f_concatPath(link(@A, X), nil)", True),
    ("B := f_member(f_init(X), X)", False),         # nested call
    ("B := f_member(P, X + 1)", False),             # computed argument
    ("B := f_first(f_init(X))", False),
    ("B := f_concatPath(link(@A, X, X + 1), P)", False),
    ("B := f_concatPath(link(@A), nil)", False),    # no node sequence
    ("B := f_concatPath(P, P)", False),             # no template
    ("B := f_concatPath(link(@A, X, 1), Unbound)", False),
    ("B := f_size(P)", False),
])
def test_only_calls_on_variables_and_constants_are_expanded(body, inlined):
    program = parse(f"R: out(@A, B) :- p(@A, P, X), {body}.")
    (strand,) = PSNEngine(program).strands["p"]
    assert ("inline0" in strand.kernel_source) == inlined
    db = Database.for_program(program)
    db.load_facts("p", [("a", ("a", "b"), "b"), ("a", ("b", "c"), "a"),
                        ("b", (), 1), ("b", ("c",), 1.0)])
    assert_strands_agree(CompiledRule(program.rules[0]), db)


def test_a_fixpoint_makes_no_python_call_per_joined_tuple():
    program = programs.shortest_path_safe()
    db = Database.for_program(program)
    nodes = [f"v{i}" for i in range(8)]
    for i, node in enumerate(nodes):
        for step in (1, 3):
            other = nodes[(i + step) % 8]
            db.load_facts("link", [(node, other, step), (other, node, step)])
    engine = PSNEngine(program, db=db, batch_size=64)
    counts = python_calls(engine.fixpoint)
    assert engine.inferences > 1000
    for function in (f_member, f_concat_path, f_first, node_sequence,
                     ConstructedTuple.__init__):
        assert counts[function.__code__] == 0, function
    fired = counts[PSNEngine._fire_strand.__code__]
    assert 0 < fired == counts["kernel"] < engine.inferences / 4


# ----------------------------------------------------------------------
# Hash-seed independence (ROADMAP aim 3)
# ----------------------------------------------------------------------
HASH_SEED_SCRIPT = r"""
import json, random, sys
import repro
from repro.engine.database import Database
from repro.engine.facts import Fact
from repro.engine.psn import PSNEngine
from repro.ndlog import programs
from repro.provenance import ProvenanceStore, audit_engine
from repro.runtime import LinkUpdateDriver, RuntimeConfig
from repro.topology import build_overlay, transit_stub

batch = int(sys.argv[1])


def link_flap():
    # The benchmark's link-flap shape: a ring with chords, transient
    # announce/withdraw flaps netted at the queue, real cost updates.
    rng = random.Random(5)
    nodes = [f"v{i}" for i in range(8)]
    pairs = {tuple(sorted((nodes[i], nodes[(i + 1) % 8]))) for i in range(8)}
    pairs |= {tuple(sorted((nodes[i], nodes[(i + 3) % 8])))
              for i in range(0, 8, 2)}
    costs = {pair: rng.randint(1, 10) for pair in sorted(pairs)}
    program = programs.shortest_path_safe()
    db = Database.for_program(program)
    for (a, b), cost in sorted(costs.items()):
        db.load_facts("link", [(a, b, cost), (b, a, cost)])
    engine = PSNEngine(program, db=db, batch_size=batch,
                       provenance=ProvenanceStore().recorder())
    engine.fixpoint()
    absent = [(a, b) for a in nodes for b in nodes
              if a < b and (a, b) not in costs]
    for a, b in rng.sample(absent, 4):
        for weight in (1, -1):
            engine.derive(Fact("link", (a, b, 3)), weight)
            engine.derive(Fact("link", (b, a, 3)), weight)
    for a, b in rng.sample(sorted(costs), 2):
        new = costs[(a, b)] % 10 + 1
        engine.update("link", (a, b, new))
        engine.update("link", (b, a, new))
    engine.run()
    table = engine.db.table("shortestPath")
    return {
        "rows": sorted(map(repr, table.rows())),
        "counts": sorted((repr(r), table.count(r)) for r in table.rows()),
        "audit": audit_engine(engine).ok,
        "inferences": engine.inferences, "steps": engine.steps,
    }


def burst():
    overlay = build_overlay(transit_stub(seed=3), n_nodes=8, degree=3,
                            seed=3)
    compiled = repro.compile(programs.shortest_path_dynamic(),
                             passes=["aggsel", "localize"], provenance=True)
    deployment = compiled.deploy(
        topology=overlay, link_loads={"link": "latency"},
        config=RuntimeConfig(buffer_interval=0.2, cpu_batch=batch))
    deployment.advance()
    LinkUpdateDriver(deployment.cluster, metric="latency", fraction=1.0,
                     seed=3).apply_burst()
    deployment.advance()
    return {
        "rows": sorted(map(repr, deployment.rows("shortestPath"))),
        "audit": deployment.audit().ok,
        "quiescent": deployment.quiescent,
    }


print(json.dumps({"link_flap": link_flap(), "burst": burst()}))
"""


def run_under_hash_seed(hash_seed, batch):
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", HASH_SEED_SCRIPT, str(batch)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_fixpoint_and_audit_do_not_depend_on_the_hash_seed():
    """Kernels iterate live index buckets (sets), so the *order* of
    derivations moves with the hash seed; the fixpoint and the
    provenance audit must not.  Under one seed, batch sizes 1 and 64
    agree on the rows and on every derivation count, as
    ``test_batching`` pins in-process (``inferences``/``steps`` are
    intermediate traffic, which netting legitimately shrinks)."""
    runs = {(seed, batch): run_under_hash_seed(seed, batch)
            for seed in (0, 1, 2) for batch in (1, 64)}
    reference = runs[(0, 64)]
    assert reference["link_flap"]["rows"] and reference["burst"]["rows"]
    for (seed, batch), run in runs.items():
        key = (seed, batch)
        assert run["burst"]["audit"] and run["burst"]["quiescent"], key
        assert run["link_flap"]["audit"], key
        assert run["link_flap"]["rows"] == reference["link_flap"]["rows"], key
        assert run["burst"]["rows"] == reference["burst"]["rows"], key
    for seed in (0, 1, 2):
        assert (runs[(seed, 1)]["link_flap"]["counts"]
                == runs[(seed, 64)]["link_flap"]["counts"]), seed
